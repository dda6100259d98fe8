//! Stackful coroutines: the simulated ranks of one universe, all on
//! the calling thread (DESIGN.md §8.5).
//!
//! A [`Group`] runs `body(0) .. body(n - 1)` each on its own
//! [`Coroutine`] stack. The driver ([`crate::pool`]) resumes one with
//! [`Group::resume`]. A rank arriving at a scheduling point
//! (`Process::sched_step`) draws the next grant itself: a grant to
//! itself costs no switch at all, a grant to another rank is one
//! user-space [`switch`] straight to that rank's stack ([`transfer`]),
//! where the thread-per-rank executor paid two kernel context
//! switches. Control comes back to the driver only at a rank's `Enter`
//! arrival ([`suspend`]) and when a rank returns.
//!
//! The scheduler deciding those grants belongs to the driver: it lends
//! it to [`drive_with`] for the length of the run, which installs it in
//! a per-thread slot beside [`CURRENT`]; the ranks and the driver loop
//! reach it through [`with_sched`]. Only one rank runs at a time and
//! all of them run on the driver's thread, so a simulated step takes no
//! lock and clones no `Arc`. Universes driven on other threads have
//! slots of their own.
//!
//! This file holds the simulation's only `unsafe` — the switch, the
//! stack mappings, the raw control-block pointers, the scheduler
//! slot's erased borrow and the per-thread view of the running group's
//! coroutines that [`transfer`] indexes — behind a safe API.
//!
//! `switch` saves what the C ABI makes a callee preserve: on `x86_64`
//! (System V) `rbx`, `rbp`, `r12`–`r15` and `rsp`; on `aarch64`
//! (AAPCS64) `x19`–`x30`, `d8`–`d15` and `sp`. (`mxcsr`/x87 control
//! bits are callee-saved too; nothing here changes them, so all
//! coroutines share the thread's.) Any other target is a compile error.
//!
//! ```text
//! base              base + GUARD                       base + GUARD + STACK
//!  | PROT_NONE guard  | <----------- stack grows down ----------- | top
//! ```
//!
//! An overflow hits the guard and the process dies with SIGSEGV instead
//! of corrupting a neighbour. A fresh stack holds one hand-built
//! `switch` frame returning into [`entry`], 16-byte aligned as at any
//! call boundary, with zeros above so a backtrace taken in a rank ends
//! there; `entry` runs the body under `catch_unwind`, so no unwind
//! reaches an assembly frame.
//!
//! **Never drop a suspended coroutine.** Its stack holds live frames
//! (destructors, `Arc` clones, borrows of the driver's frame) that
//! nothing can unwind from outside. The driver resumes every rank until
//! it has *finished* — after budget exhaustion with
//! `StepOutcome::Abort`, so each returns `Err(Aborted)` through its own
//! frames. A [`Group`] dropped earlier (the driver itself panicked)
//! forgets those frames: a leak, not undefined behaviour.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::ffi::{c_int, c_void};
use std::marker::PhantomData;
use std::panic::AssertUnwindSafe;
use std::ptr::NonNull;

use faultsim::{SchedHook, StepOutcome};

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "ftmpi's simulation core switches stacks in assembly and supports \
     x86_64 and aarch64 on unix only"
);

/// Usable bytes of one rank's stack — the one sizing constant of the
/// simulation core. Rank bodies are protocol code (the ring, the
/// collectives) a few KiB deep; 256 KiB leaves room for debug-profile
/// frames plus a panic with a symbolised backtrace. Pages are
/// committed on first touch, so a 1024-rank universe maps 256 MiB but
/// keeps resident only what its ranks actually used.
const STACK_BYTES: usize = 256 * 1024;

/// Inaccessible bytes below each stack. 64 KiB is a whole number of
/// pages at every page size the two targets use (4, 16 and 64 KiB).
const GUARD_BYTES: usize = 64 * 1024;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_ANONYMOUS: c_int = 0x20;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_ANONYMOUS: c_int = 0x1000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// Save the callee-saved registers on the current stack, store the
/// stack pointer to `*from`, load the stack pointer `*to` and restore
/// the registers found there. Returns on the *other* stack; the call
/// "returns" here when something later switches back to `*from`.
///
/// # Safety
///
/// `from` must be writable and `*to` must be a stack pointer stored by
/// an earlier `switch` (or built by [`Coroutine::arm`]) on a stack
/// that is still mapped and not currently running.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(from: *mut *mut u8, to: *const *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(from: *mut *mut u8, to: *const *mut u8) {
    core::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "ldr x9, [x1]",
        "mov sp, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// Words in the frame `switch` pops when it lands on a stack.
#[cfg(target_arch = "x86_64")]
const FRAME_WORDS: usize = 8; // six registers, return address, zero caller slot
#[cfg(target_arch = "aarch64")]
const FRAME_WORDS: usize = 20; // 160 bytes of saved registers

/// Index of the word `switch`'s `ret` jumps through.
#[cfg(target_arch = "x86_64")]
const RETURN_WORD: usize = 6;
#[cfg(target_arch = "aarch64")]
const RETURN_WORD: usize = 11; // the x30 slot

/// First instruction a fresh coroutine executes. On x86_64 `switch`'s
/// `ret` lands directly on [`entry`] with a zero return address above
/// it; aarch64 returns through `x30`, which would otherwise still name
/// `start` and send a backtrace in circles, so clear it first.
#[cfg(target_arch = "x86_64")]
use entry as start;

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn start() -> ! {
    core::arch::naked_asm!("mov x30, xzr", "b {entry}", entry = sym entry)
}

thread_local! {
    /// Control block of the coroutine running on this thread (null on
    /// a plain thread stack); saved and restored around a resume.
    static CURRENT: Cell<*mut Control> = const { Cell::new(std::ptr::null_mut()) };

    /// The scheduler of the drive running on this thread (`None`
    /// outside one): installed by [`drive_with`], reached by
    /// [`with_sched`]. The lifetime is erased; `drive_with` keeps the
    /// borrow alive while the slot holds it.
    static SCHED: RefCell<Option<NonNull<dyn SchedHook>>> = const { RefCell::new(None) };

    /// The coroutines of the group whose [`Group::resume`] is running
    /// on this thread (empty outside one), for [`transfer`] to index;
    /// saved and restored around a resume like [`CURRENT`].
    static GROUP: Cell<*const [Coroutine]> =
        const { Cell::new(std::ptr::slice_from_raw_parts(std::ptr::null(), 0)) };
}

/// Run `f` with `sched` installed as this thread's scheduler, then put
/// back whatever was installed before — also when `f` unwinds, so a
/// nested drive and the next drive on this thread each see their own.
pub(crate) fn drive_with<R>(sched: &mut dyn SchedHook, f: impl FnOnce() -> R) -> R {
    /// Restores the previous slot contents when the drive ends.
    struct Restore(Option<NonNull<dyn SchedHook>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCHED.with(|slot| *slot.borrow_mut() = self.0);
        }
    }
    let sched = NonNull::from(sched);
    // SAFETY: erases the lifetime of a fat pointer; it is dereferenced
    // only by `with_sched` while the slot holds it, which `Restore`
    // confines to this call, and for this call `sched` is exclusively
    // borrowed.
    let sched = unsafe {
        std::mem::transmute::<NonNull<dyn SchedHook + '_>, NonNull<dyn SchedHook>>(sched)
    };
    let _restore = Restore(SCHED.with(|slot| slot.replace(Some(sched))));
    f()
}

/// Run `f` on the scheduler of the drive this thread is in.
///
/// Panics outside a drive — a universe configured for simulation that
/// nobody drives — and when `f` reaches `with_sched` again.
pub(crate) fn with_sched<R>(f: impl FnOnce(&mut dyn SchedHook) -> R) -> R {
    SCHED.with(|slot| {
        let slot = slot.try_borrow_mut().expect("the simulation scheduler was re-entered");
        let sched = slot.expect("simulation scheduler reached outside a drive");
        // SAFETY: the slot holds a pointer only inside `drive_with`,
        // made from a `&mut` that call holds exclusively; the `RefMut`
        // kept across `f` makes this the only reference made from it.
        f(unsafe { &mut *sched.as_ptr() })
    })
}

/// What the two sides of a coroutine share. Reached through raw
/// pointers only: while the coroutine runs, both its own frames
/// ([`suspend`], [`transfer`], [`entry`]) and the suspended resumer
/// refer to it, and a sibling's `transfer` writes it while it is
/// suspended.
struct Control {
    /// The coroutine's stack pointer while it is suspended.
    coro_sp: *mut u8,
    /// The resumer's stack pointer while the coroutine runs: the
    /// driver's, whether it resumed this coroutine or a sibling did
    /// and transferred to it.
    resumer_sp: *mut u8,
    /// The value the next [`suspend`] or [`transfer`] return hands to
    /// the rank.
    msg: StepOutcome,
    /// Started and not finished: live frames on the stack.
    live: bool,
    /// The group's body and this coroutine's argument to it. The
    /// lifetime is erased; [`Group`] keeps the borrow alive.
    body: *const (dyn Fn(usize) + 'static),
    arg: usize,
}

/// One mapped stack plus its control block, reusable across runs.
pub(crate) struct Coroutine {
    base: *mut u8,
    ctl: UnsafeCell<Control>,
}

// SAFETY: a `Coroutine` that can be moved is not borrowed by a
// `Group`, so nothing on its stack is live; what remains is an owned
// anonymous mapping and plain words, which any thread may own.
unsafe impl Send for Coroutine {}

impl Coroutine {
    /// Map a fresh stack with its guard page.
    ///
    /// Panics when the kernel refuses the mapping — the same failure a
    /// refused thread spawn was.
    pub(crate) fn new() -> Coroutine {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: an anonymous private mapping at a kernel-chosen
        // address aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "cannot map a {len}-byte coroutine stack: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the range is the low end of the mapping just made.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(
            rc == 0,
            "cannot protect the coroutine stack guard: {}",
            std::io::Error::last_os_error()
        );
        Coroutine {
            base: base.cast(),
            ctl: UnsafeCell::new(Control {
                coro_sp: std::ptr::null_mut(),
                resumer_sp: std::ptr::null_mut(),
                msg: StepOutcome::Run,
                live: false,
                body: std::ptr::null::<fn(usize)>() as *const (dyn Fn(usize) + 'static),
                arg: 0,
            }),
        }
    }

    /// Build the initial `switch` frame so the first resume starts
    /// `body(arg)` at the top of this stack.
    fn arm(&mut self, body: *const (dyn Fn(usize) + 'static), arg: usize) {
        let top = self.base.wrapping_add(GUARD_BYTES + STACK_BYTES);
        let frame = top.wrapping_sub(FRAME_WORDS * 8).cast::<usize>();
        // SAFETY: the frame lies inside the writable part of this
        // coroutine's own mapping (FRAME_WORDS * 8 < STACK_BYTES),
        // word-aligned because the mapping is page-aligned; `&mut
        // self` means no group is running on it.
        unsafe {
            std::ptr::write_bytes(frame, 0, FRAME_WORDS);
            frame.add(RETURN_WORD).write(start as *const () as usize);
        }
        let ctl = self.ctl.get_mut();
        ctl.coro_sp = frame.cast();
        ctl.msg = StepOutcome::Run;
        ctl.live = true;
        ctl.body = body;
        ctl.arg = arg;
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // SAFETY: `base` is the mapping `new` made, of this length; no
        // group borrows a coroutine being dropped, so nothing runs on
        // it. A failure would only leak the mapping.
        unsafe { munmap(self.base.cast(), GUARD_BYTES + STACK_BYTES) };
    }
}

/// Where a fresh coroutine begins: run the body, mark the coroutine
/// finished, switch back for good.
extern "C" fn entry() -> ! {
    let ctl = CURRENT.get();
    // SAFETY: only a resume or a transfer reaches this function, and
    // it set CURRENT to the control block of the coroutine it switched
    // to; `body` outlives the group that is resuming us.
    let (body, arg) = unsafe { (&*(*ctl).body, (*ctl).arg) };
    // An unwind must not reach the hand-built frame above us. The
    // payload is dropped here: the pool's rank body already turned a
    // panicking rank into an outcome, what is left is its bookkeeping.
    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| body(arg)));
    // SAFETY: as above; the resumer's stack pointer was stored by the
    // resume the driver is suspended in — into this coroutine, or into
    // a sibling that handed it on by transfer — and its stack is
    // suspended in that resume's `switch`.
    unsafe {
        (*ctl).live = false;
        switch(&raw mut (*ctl).coro_sp, &raw const (*ctl).resumer_sp);
    }
    unreachable!("a finished coroutine was resumed");
}

/// Suspend the calling coroutine until its driver resumes it or a
/// sibling [`transfer`]s to it, and return the verdict passed.
///
/// Panics when the caller is not running on a coroutine — a simulation
/// scheduler installed on a universe that nobody drives.
pub(crate) fn suspend() -> StepOutcome {
    let ctl = CURRENT.get();
    assert!(!ctl.is_null(), "scheduling point reached outside a simulated rank");
    // SAFETY: CURRENT is non-null only while we run on that
    // coroutine's stack (a resume or a transfer set it on the way in);
    // the driver is suspended inside `switch` with its stack pointer
    // in `resumer_sp`.
    unsafe {
        switch(&raw mut (*ctl).coro_sp, &raw const (*ctl).resumer_sp);
        (*ctl).msg
    }
}

/// Switch from the running coroutine straight to coroutine `i` of the
/// same group, whose pending [`suspend`] or `transfer` returns `msg`
/// (a fresh one starts its body); return the verdict this coroutine is
/// handed when something switches back to it. No driver runs in
/// between: `i` inherits this coroutine's resumer, the driver
/// suspended in [`Group::resume`], so when `i` suspends or finishes
/// that is where it lands.
///
/// Panics when the caller is not running on a coroutine, and when `i`
/// is the caller or has finished.
pub(crate) fn transfer(i: usize, msg: StepOutcome) -> StepOutcome {
    let from = CURRENT.get();
    assert!(!from.is_null(), "scheduling point reached outside a simulated rank");
    let group = GROUP.get();
    assert!(i < group.len(), "transfer to coroutine {i} of a group of {}", group.len());
    // SAFETY: CURRENT is non-null only while we run on that coroutine,
    // and GROUP then names the coroutines of the group whose `resume`
    // is suspended below us, exclusively borrowed by it — `i` is in
    // bounds. Only one coroutine of a group runs at a time, so a live
    // `i` other than the caller is suspended: its `coro_sp` is what its
    // last `switch` stored (or the armed frame), on a mapped stack. The
    // caller's `resumer_sp` is the driver's stack pointer, stored by
    // the `switch` in `resume` and suspended there; handing it to `i`
    // keeps it the one place every coroutine of the group returns to.
    unsafe {
        let to = (*group.cast::<Coroutine>().add(i)).ctl.get();
        assert!(to != from, "coroutine {i} transferred to itself");
        assert!((*to).live, "transfer to coroutine {i}, which finished");
        (*to).msg = msg;
        (*to).resumer_sp = (*from).resumer_sp;
        CURRENT.set(to);
        switch(&raw mut (*from).coro_sp, &raw const (*to).coro_sp);
        (*from).msg
    }
}

/// `body(0) .. body(n - 1)`, each armed on its own coroutine.
pub(crate) struct Group<'a> {
    coros: &'a mut [Coroutine],
    /// Coroutines started and not yet finished.
    live: usize,
    /// Keeps `body` borrowed for as long as a coroutine may call it.
    _body: PhantomData<&'a (dyn Fn(usize) + 'a)>,
}

impl<'a> Group<'a> {
    /// Arm `coros[i]` to run `body(i)`. Nothing runs until the first
    /// [`Group::resume`].
    pub(crate) fn new(coros: &'a mut [Coroutine], body: &'a (dyn Fn(usize) + 'a)) -> Group<'a> {
        // SAFETY: erases the lifetime of a fat reference; the pointer
        // is only dereferenced by `entry` during a `resume` of this
        // group, which `_body` confines to 'a.
        let body: *const (dyn Fn(usize) + 'static) = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + 'a), *const (dyn Fn(usize) + 'static)>(
                body,
            )
        };
        for (i, c) in coros.iter_mut().enumerate() {
            c.arm(body, i);
        }
        let live = coros.len();
        Group { coros, live, _body: PhantomData }
    }

    /// Run coroutine `i` until the group hands control back: `i`, or a
    /// coroutine it [`transfer`]red to, suspends or finishes. `msg` is
    /// what `i`'s pending [`suspend`] or `transfer` returns (ignored by
    /// the first resume, which starts the body).
    ///
    /// Panics if `i` already finished.
    pub(crate) fn resume(&mut self, i: usize, msg: StepOutcome) {
        let ctl = self.coros[i].ctl.get();
        // SAFETY: `ctl` points into `self.coros[i]`, exclusively
        // borrowed for 'a, so only the group's own frames alias it —
        // and they run strictly inside the `switch` below, which also
        // bounds GROUP's view of the coroutines. `coro_sp` is the armed
        // frame or what `i`'s last `switch` stored, on a stack that
        // stays mapped while `self` borrows the coroutine. The one that
        // switches back leaves CURRENT naming itself: `i`, or the last
        // coroutine transferred to.
        unsafe {
            assert!((*ctl).live, "coroutine {i} resumed after it finished");
            (*ctl).msg = msg;
            let outer = CURRENT.replace(ctl);
            let outer_group = GROUP.replace(&raw const *self.coros);
            switch(&raw mut (*ctl).resumer_sp, &raw const (*ctl).coro_sp);
            GROUP.set(outer_group);
            let back = CURRENT.replace(outer);
            self.live -= usize::from(!(*back).live);
        }
    }

    /// Whether coroutine `i` has not finished.
    #[cfg(test)]
    fn is_live(&self, i: usize) -> bool {
        // SAFETY: no coroutine of the group runs while the driver holds
        // `&self`, so nothing writes the control block.
        unsafe { (*self.coros[i].ctl.get()).live }
    }

    /// Coroutines that have not finished.
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Drive every coroutine round-robin until all have finished.
    fn round_robin(mut group: Group<'_>, n: usize) {
        while group.live() > 0 {
            for i in 0..n {
                if group.is_live(i) {
                    group.resume(i, StepOutcome::Run);
                }
            }
        }
    }

    /// More live integer and floating-point values than there are
    /// callee-saved registers, updated across `pause` calls and then
    /// formatted (`f64` formatting spills through SSE/NEON: a
    /// misaligned coroutine stack faults there).
    fn churn(i: usize, pause: impl Fn()) -> String {
        let mut ints: [u64; 8] = std::array::from_fn(|k| std::hint::black_box((i * 100 + k) as u64));
        let mut floats: [f64; 10] =
            std::array::from_fn(|k| std::hint::black_box(i as f64 + k as f64 / 16.0));
        for round in 0..50u64 {
            for v in ints.iter_mut() {
                *v = v.wrapping_mul(6364136223846793005).wrapping_add(round);
            }
            for v in floats.iter_mut() {
                *v = *v * 1.0000001 + 0.5;
            }
            pause();
        }
        format!("{ints:?} {floats:.9?}")
    }

    /// N-way interleaving leaves every coroutine's integer and
    /// floating-point state intact — `switch` preserves the
    /// callee-saved registers — whether each pause hands the turn back
    /// to the driver or straight on to the next coroutine, and the
    /// stacks are reusable: a second group on the same coroutines
    /// starts from clean frames.
    #[test]
    fn round_robin_preserves_integer_and_float_state() {
        const N: usize = 7;
        let out = RefCell::new(vec![String::new(); N]);
        let mut coros: Vec<Coroutine> = (0..N).map(|_| Coroutine::new()).collect();
        let pauses: [fn(usize) -> StepOutcome; 2] =
            [|_| suspend(), |i| transfer((i + 1) % N, StepOutcome::Run)];
        for pause in pauses {
            let body = |i: usize| {
                let text = churn(i, || assert_eq!(pause(i), StepOutcome::Run));
                out.borrow_mut()[i] = text;
            };
            for _ in 0..2 {
                out.borrow_mut().fill(String::new());
                round_robin(Group::new(&mut coros, &body), N);
                for (i, got) in out.borrow().iter().enumerate() {
                    assert_eq!(*got, churn(i, || ()), "coroutine {i}");
                }
            }
        }
    }

    /// Sets its flag when dropped: proof that an unwind ran the
    /// destructors of the frame that owned it.
    struct Flag<'a>(&'a Cell<bool>);

    impl Drop for Flag<'_> {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    /// A panicking body is caught on its own stack: the coroutine
    /// counts as finished, its locals were dropped by the unwind, its
    /// sibling keeps running, and `Abort` reaches the pending `suspend`.
    #[test]
    fn a_panicking_body_finishes_its_coroutine_only() {
        let (dropped, sibling_done) = (Cell::new(false), Cell::new(false));
        let body = |i: usize| {
            let _flag = (i == 0).then(|| Flag(&dropped));
            let verdict = suspend();
            if i == 0 {
                panic!("rank body panics on a coroutine stack, told {verdict:?}");
            }
            sibling_done.set(verdict == StepOutcome::Abort);
        };
        let mut coros = vec![Coroutine::new(), Coroutine::new()];
        let mut group = Group::new(&mut coros, &body);
        group.resume(0, StepOutcome::Run);
        group.resume(1, StepOutcome::Run);
        assert_eq!(group.live(), 2);
        group.resume(0, StepOutcome::Run);
        assert!(!group.is_live(0), "the panic finishes coroutine 0");
        assert!(dropped.get(), "the unwind must run the panicking body's destructors");
        group.resume(1, StepOutcome::Abort);
        assert!(sibling_done.get());
        assert_eq!(group.live(), 0);
    }

    /// The same after a transfer: coroutine 1, suspended, is switched to
    /// by coroutine 0 and panics. Only it finishes — the group counts it
    /// although the driver resumed 0 — control lands back in the
    /// driver, and 0 is still suspended in its `transfer`, where the
    /// driver's `Abort` reaches it.
    #[test]
    fn a_body_panicking_after_a_transfer_finishes_its_coroutine_only() {
        let (dropped, sender_told) = (Cell::new(false), Cell::new(None));
        let body = |i: usize| {
            if i == 0 {
                sender_told.set(Some(transfer(1, StepOutcome::Run)));
            } else {
                let _flag = Flag(&dropped);
                let verdict = suspend();
                panic!("coroutine 1 panics after a transfer, told {verdict:?}");
            }
        };
        let mut coros = vec![Coroutine::new(), Coroutine::new()];
        let mut group = Group::new(&mut coros, &body);
        group.resume(1, StepOutcome::Run);
        group.resume(0, StepOutcome::Run);
        assert_eq!(group.live(), 1, "exactly one coroutine finished");
        assert!(group.is_live(0) && !group.is_live(1));
        assert!(dropped.get(), "the unwind must run the panicking body's destructors");
        assert_eq!(sender_told.get(), None, "coroutine 0 is still suspended in its transfer");
        group.resume(0, StepOutcome::Abort);
        assert_eq!(sender_told.get(), Some(StepOutcome::Abort));
        assert_eq!(group.live(), 0);
    }

    #[test]
    #[should_panic(expected = "outside a simulated rank")]
    fn suspend_on_a_plain_thread_panics() {
        suspend();
    }

    #[test]
    #[should_panic(expected = "outside a simulated rank")]
    fn transfer_on_a_plain_thread_panics() {
        transfer(0, StepOutcome::Run);
    }

    /// Coroutine 0 of two transfers to `target` once coroutine 1 has
    /// finished; the panic that transfer raises on 0's stack is caught
    /// there and raised again on this thread.
    fn transfer_after_coroutine_1_finished(target: usize) {
        let payload = Cell::new(None);
        let body = |i: usize| {
            if i == 0 {
                payload.set(std::panic::catch_unwind(|| transfer(target, StepOutcome::Run)).err());
            }
        };
        let mut coros = vec![Coroutine::new(), Coroutine::new()];
        let mut group = Group::new(&mut coros, &body);
        group.resume(1, StepOutcome::Run);
        group.resume(0, StepOutcome::Run);
        assert_eq!(group.live(), 0, "the failed transfer switched nowhere");
        if let Some(p) = payload.take() {
            std::panic::resume_unwind(p);
        }
    }

    #[test]
    #[should_panic(expected = "transfer to coroutine 1, which finished")]
    fn transfer_to_a_finished_coroutine_panics() {
        transfer_after_coroutine_1_finished(1);
    }

    #[test]
    #[should_panic(expected = "coroutine 0 transferred to itself")]
    fn transfer_to_itself_panics() {
        transfer_after_coroutine_1_finished(0);
    }

    /// A scheduler that only tells the time: which one the slot holds.
    pub(crate) struct Clock(pub(crate) u64);

    impl SchedHook for Clock {
        fn arrive(&mut self, _rank: usize, _point: faultsim::SchedPoint) {}
        fn next(&mut self) -> Option<(usize, StepOutcome)> {
            None
        }
        fn wake(&mut self, _rank: usize) {}
        fn wake_all(&mut self) {}
        fn choose(&mut self, _rank: usize, _kind: faultsim::ChoiceKind, _n: usize) -> usize {
            0
        }
        fn on_exit(&mut self, _rank: usize) {}
        fn now(&mut self) -> u64 {
            self.0
        }
    }

    fn installed() -> u64 {
        with_sched(|s| s.now())
    }

    #[test]
    #[should_panic(expected = "reached outside a drive")]
    fn with_sched_outside_a_drive_panics() {
        installed();
    }

    #[test]
    #[should_panic(expected = "scheduler was re-entered")]
    fn with_sched_inside_with_sched_panics() {
        drive_with(&mut Clock(1), || with_sched(|_| installed()));
    }

    /// A drive puts back what it found, after a nested drive and after
    /// a body that panicked; the last one leaves the slot empty.
    #[test]
    fn the_slot_is_restored_after_nested_and_panicking_drives() {
        let (mut outer, mut inner) = (Clock(1), Clock(2));
        drive_with(&mut outer, || {
            assert_eq!(drive_with(&mut inner, installed), 2);
            assert_eq!(installed(), 1, "a nested drive restores the outer scheduler");
            let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
                drive_with(&mut inner, || panic!("the body of a drive panics"))
            }));
            assert!(panicked.is_err());
            assert_eq!(installed(), 1, "an unwinding drive restores the outer scheduler");
        });
        assert!(std::panic::catch_unwind(installed).is_err(), "the slot is empty again");
    }
}
