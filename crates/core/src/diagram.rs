//! ASCII message-sequence diagrams from protocol traces.
//!
//! The paper's Figs. 6, 7, 8 and 10 are message-sequence charts. This
//! module renders the *actual* recorded trace of a run in the same
//! shape, so the experiment binaries can print, next to each figure's
//! statistics, the diagram the run really produced.
//!
//! ```text
//! P0          P1          P2          P3
//! |--- T_N -->|           |           |
//! |           |--- T_N -->|           |
//! |           |           X           |        (P2 killed)
//! |           |--- T_N ------------->>|        (resend)
//! ```

use ftmpi::{Event, TimedEvent};

use crate::msg::{T_D, T_N, T_R};

/// Column width per rank lane.
const LANE_WIDTH: usize = 12;

/// Cap on rendered rows: a longer chart keeps its first and last rows
/// and elides the middle.
const MAX_ROWS: usize = 60;

fn tag_label(tag: i32) -> String {
    match tag {
        T_N => "T_N".to_string(),
        T_D => "T_D".to_string(),
        T_R => "T_R".to_string(),
        t => format!("t{t}"),
    }
}

/// One renderable row of the chart.
enum Row {
    /// Message from `src` to `dst` with a label.
    Arrow { src: usize, dst: usize, label: String },
    /// Rank died.
    Death { rank: usize },
    /// Annotation spanning the chart.
    Note(String),
}

/// Render the trace for `ranks` lanes. Only user traffic is drawn: a
/// send on a system tag (`tag < 0`) is left out.
pub fn render_sequence_diagram(trace: &[TimedEvent], ranks: usize) -> String {
    let mut rows: Vec<Row> = Vec::new();
    for te in trace {
        match &te.event {
            Event::Send { src, dst, tag, .. } => {
                if *tag < 0 {
                    continue;
                }
                rows.push(Row::Arrow { src: *src, dst: *dst, label: tag_label(*tag) });
            }
            Event::Killed { rank } => rows.push(Row::Death { rank: *rank }),
            Event::Aborted { code } => rows.push(Row::Note(format!("JOB ABORTED (code {code})"))),
            Event::ValidateDecided { failed, .. } => {
                rows.push(Row::Note(format!("validate_all decided: {failed} failed")))
            }
            _ => {}
        }
    }

    let w = LANE_WIDTH;
    let line_len = ranks * w;
    let mut out = String::new();

    // Header lane labels.
    for r in 0..ranks {
        let label = format!("P{r}");
        out.push_str(&format!("{label:<width$}", width = w));
    }
    out.push('\n');

    let render_row = |row: &Row| -> String {
        let mut line: Vec<char> = Vec::with_capacity(line_len);
        for _ in 0..ranks {
            let mut lane: Vec<char> = vec![' '; w];
            lane[0] = '|';
            line.extend(lane);
        }
        match row {
            Row::Death { rank } => {
                line[rank * w] = 'X';
                let mut s: String = line.into_iter().collect();
                s.push_str(&format!("   (P{rank} killed)"));
                s
            }
            Row::Note(n) => format!("{:-^width$}  {n}", "", width = line_len),
            Row::Arrow { src, dst, label } => {
                let (a, b) = (src.min(dst) * w, src.max(dst) * w);
                // Fill the span with dashes, leaving the endpoints.
                for cell in line.iter_mut().take(b).skip(a + 1) {
                    *cell = '-';
                }
                // Direction arrow head.
                if dst > src {
                    line[b - 1] = '>';
                } else {
                    line[a + 1] = '<';
                }
                // Label in the middle of the span.
                let mid = (a + b) / 2;
                let chars: Vec<char> = label.chars().collect();
                let start = mid.saturating_sub(chars.len() / 2).max(a + 2);
                for (i, c) in chars.iter().enumerate() {
                    let pos = start + i;
                    if pos < b.saturating_sub(1) {
                        line[pos] = *c;
                    }
                }
                line.into_iter().collect()
            }
        }
    };

    if rows.len() > MAX_ROWS {
        let head = MAX_ROWS / 2;
        let tail = MAX_ROWS - head;
        for row in &rows[..head] {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out.push_str(&format!(
            "{:^width$}\n",
            format!("... {} rows elided ...", rows.len() - MAX_ROWS),
            width = line_len
        ));
        for row in &rows[rows.len() - tail..] {
            out.push_str(&render_row(row));
            out.push('\n');
        }
    } else {
        for row in &rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::refereed;
    use faultsim::{scenario::kill_after_recv, FaultPlan};
    use ftmpi::WORLD;

    #[test]
    fn renders_fig7_style_diagram() {
        let plan = kill_after_recv(2, 1, T_N, 2);
        let cfg = crate::RingConfig::paper(3);
        refereed(4, plan, |p| crate::run_ring(p, WORLD, &cfg), |at, report| {
            let diagram = render_sequence_diagram(&report.trace, 4);
            // Lanes present.
            assert!(diagram.contains("P0") && diagram.contains("P3"), "{at}");
            // The death marker and at least one arrow.
            assert!(diagram.contains("(P2 killed)"), "{at}\n{diagram}");
            assert!(diagram.contains("T_N"), "{at}\n{diagram}");
            // Line discipline: every body line is non-empty.
            assert!(diagram.lines().count() >= 4, "{at}");
        });
    }

    #[test]
    fn elides_long_traces() {
        let cfg = crate::RingConfig::paper(40);
        refereed(3, FaultPlan::none(), |p| crate::run_ring(p, WORLD, &cfg), |at, report| {
            let diagram = render_sequence_diagram(&report.trace, 3);
            assert!(diagram.contains("rows elided"), "{at}\n{diagram}");
            // The lane header, the kept rows and the elision line.
            assert_eq!(diagram.lines().count(), 1 + MAX_ROWS + 1, "{at}\n{diagram}");
        });
    }

    #[test]
    fn leftward_arrows_point_left() {
        // Synthesize a trace with a right-to-left message.
        let trace = vec![
            TimedEvent { at_us: 0, event: Event::Send { src: 2, dst: 0, context: 0, tag: T_N, len: 0 } },
        ];
        let d = render_sequence_diagram(&trace, 3);
        assert!(d.contains('<'), "{d}");
    }

    #[test]
    fn system_tag_sends_are_not_drawn() {
        let send = |tag| {
            let event = Event::Send { src: 0, dst: 1, context: 0, tag, len: 0 };
            TimedEvent { at_us: 0, event }
        };
        let d = render_sequence_diagram(&[send(-3), send(T_N), send(-1)], 2);
        // The lane header and the one user send.
        assert_eq!(d.lines().count(), 2, "{d}");
        assert!(d.contains("T_N"), "{d}");
    }

    #[test]
    fn tag_labels() {
        assert_eq!(tag_label(T_N), "T_N");
        assert_eq!(tag_label(T_D), "T_D");
        assert_eq!(tag_label(T_R), "T_R");
        assert_eq!(tag_label(9), "t9");
    }
}
