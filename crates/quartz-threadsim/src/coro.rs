//! Stackful coroutines: how an engine's simulated threads share the OS
//! thread that drives it.
//!
//! Each simulated thread runs on a stack of its own, and a hand-off is a
//! user-space switch between that stack and the scheduler loop's
//! (DESIGN.md §19). This is the crate's only unsafe module. It holds:
//!
//! * an x86-64 System V context switch in `global_asm!`, which saves what
//!   the ABI makes callee-saved (rbx, rbp, r12–r15, the stack pointer, and
//!   the MXCSR and x87 control words) and loads another context's;
//! * an entry trampoline whose CFI marks the return address undefined,
//!   so unwinders and backtraces stop there;
//! * stacks of [`STACK_SIZE`] bytes from the global allocator, above a
//!   guard page that `mprotect` makes inaccessible, so an overflow faults
//!   instead of writing past the stack.
//!
//! The safe API rests on three rules:
//!
//! 1. A [`Coroutine`] is neither `Send` nor `Sync`: it is created,
//!    resumed and dropped on one OS thread, so thread-locals and
//!    `!Send` lock guards held across a switch stay valid.
//! 2. [`suspend`] switches out of the innermost coroutine running on the
//!    calling OS thread, as recorded by [`Coroutine::resume`]; outside a
//!    coroutine it panics.
//! 3. A stack with live frames is never freed: a coroutine dropped while
//!    suspended leaks its stack.
//!
//! No unwind crosses the trampoline: the entry function is `extern "C"`,
//! so a panic that escapes a coroutine's body aborts the process.

use std::alloc::Layout;
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::ptr::{self, NonNull};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "quartz-threadsim runs simulated threads as coroutines, and coro.rs has a context \
     switch and entry trampoline only for x86-64 Linux (System V ABI); this target needs \
     its own"
);

/// Usable bytes of each coroutine stack: `std::thread`'s default stack
/// size, which every simulated thread had while each ran on an OS thread.
pub(crate) const STACK_SIZE: usize = 2 << 20;

/// The x86-64 Linux page size: the guard page's size and alignment.
const PAGE: usize = 4096;

/// Initial MXCSR (all exceptions masked, round to nearest) in the low
/// half and x87 control word (64-bit precision, all exceptions masked)
/// at byte 4: the System V ABI's values at process start.
const INITIAL_CONTROL_WORDS: usize = 0x1F80 | (0x037F << 32);

const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 1 | 2;

// A libc symbol that std already links.
extern "C" {
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
}

// Defined by the `global_asm!` below.
extern "C" {
    /// Saves the caller's context on its stack, stores that stack
    /// pointer to `*save`, and resumes the context saved at `load`.
    fn quartz_threadsim_coro_switch(save: *mut usize, load: usize);
    /// First instruction of a new coroutine: calls [`entry`] with r12.
    fn quartz_threadsim_coro_trampoline();
}

// The switch pushes the callee-saved registers and an 8-byte slot with
// MXCSR (bytes 0–3) and the x87 control word (bytes 4–5), then swaps
// stack pointers and pops the other context in reverse. A suspended
// context is therefore 8 words: the control words, r15, r14, r13, r12,
// rbx, rbp and the return address. `Coroutine::new` writes that layout
// by hand, with the trampoline as the return address and the context
// pointer in r12.
std::arch::global_asm!(
    ".pushsection .text.quartz_threadsim_coro,\"ax\",@progbits",
    ".p2align 4",
    ".globl quartz_threadsim_coro_switch",
    ".hidden quartz_threadsim_coro_switch",
    ".type quartz_threadsim_coro_switch,@function",
    "quartz_threadsim_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr dword ptr [rsp]",
    "fnstcw word ptr [rsp + 4]",
    "mov qword ptr [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr dword ptr [rsp]",
    "fldcw word ptr [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size quartz_threadsim_coro_switch, . - quartz_threadsim_coro_switch",
    ".p2align 4",
    ".globl quartz_threadsim_coro_trampoline",
    ".hidden quartz_threadsim_coro_trampoline",
    ".type quartz_threadsim_coro_trampoline,@function",
    "quartz_threadsim_coro_trampoline:",
    ".cfi_startproc",
    // The outermost frame: no caller to unwind into.
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call {entry}",
    "ud2",
    ".cfi_endproc",
    ".size quartz_threadsim_coro_trampoline, . - quartz_threadsim_coro_trampoline",
    ".popsection",
    entry = sym entry,
);

thread_local! {
    /// The innermost coroutine running on this OS thread; null outside
    /// every coroutine.
    static CURRENT: Cell<*const Context> = const { Cell::new(ptr::null()) };
}

#[cfg(test)]
thread_local! {
    /// Stacks allocated and not yet freed on this OS thread.
    static LIVE_STACKS: Cell<usize> = const { Cell::new(0) };
}

/// Coroutine stacks allocated and not yet freed on this OS thread.
#[cfg(test)]
pub(crate) fn live_stacks() -> usize {
    LIVE_STACKS.get()
}

/// One coroutine stack: an allocation holding a page-aligned guard page,
/// then [`STACK_SIZE`] usable bytes.
///
/// The memory comes from the global allocator rather than a mapping of
/// its own, so a finished stack is reused the way the allocator reuses
/// any large buffer. With glibc, the first stack freed raises malloc's
/// dynamic mmap threshold to its size (mallopt(3)), so later stacks come
/// from the heap with their pages still faulted in, as glibc's
/// thread-stack cache kept OS-thread stacks (DESIGN.md §19).
struct Stack {
    alloc: NonNull<u8>,
    guard: *mut c_void,
}

impl Stack {
    /// Room for the guard page at any page offset, plus the stack.
    const LAYOUT: Layout = match Layout::from_size_align(STACK_SIZE + 2 * PAGE, 16) {
        Ok(layout) => layout,
        Err(_) => panic!("stack layout"),
    };

    fn new() -> Stack {
        // SAFETY: the layout has a non-zero size.
        let raw = unsafe { std::alloc::alloc(Self::LAYOUT) };
        let Some(alloc) = NonNull::new(raw) else {
            std::alloc::handle_alloc_error(Self::LAYOUT)
        };
        let to_page = (PAGE - raw as usize % PAGE) % PAGE;
        let guard = raw.wrapping_add(to_page).cast::<c_void>();
        // SAFETY: the guard page lies inside the allocation just made,
        // which nothing else references.
        let rc = unsafe { mprotect(guard, PAGE, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "mprotect of a coroutine stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        #[cfg(test)]
        LIVE_STACKS.set(LIVE_STACKS.get() + 1);
        Stack { alloc, guard }
    }

    /// One past the highest usable byte; page-aligned.
    fn top(&self) -> usize {
        self.guard as usize + PAGE + STACK_SIZE
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the allocation belongs to this `Stack` alone and no
        // frame lives on it (rule 3).
        let rc = unsafe { mprotect(self.guard, PAGE, PROT_READ_WRITE) };
        // The allocator may write into freed memory, so a guard page
        // that stayed inaccessible keeps its allocation leaked.
        if rc == 0 {
            // SAFETY: allocated in `Stack::new` with the same layout.
            unsafe { std::alloc::dealloc(self.alloc.as_ptr(), Self::LAYOUT) };
        }
        #[cfg(test)]
        LIVE_STACKS.set(LIVE_STACKS.get() - 1);
    }
}

/// A coroutine's switch state. Boxed, so its address stays fixed while
/// the coroutine's frames and [`CURRENT`] refer to it.
struct Context {
    /// The coroutine's stack pointer, saved by its last switch out (or
    /// its initial frame).
    sp: Cell<usize>,
    /// The resumer's stack pointer, saved by the last resume: where a
    /// switch out returns.
    caller_sp: Cell<usize>,
    /// The body, until the first resume takes it.
    body: Cell<Option<Box<dyn FnOnce()>>>,
    /// Set once the body has returned.
    finished: Cell<bool>,
}

/// A body that runs on a stack of its own and can [`suspend`] to the
/// code that resumed it.
pub(crate) struct Coroutine {
    ctx: Box<Context>,
    /// `None` once finished: the stack has been freed.
    stack: Option<Stack>,
}

impl Coroutine {
    /// A coroutine that runs `body` at its first [`Coroutine::resume`].
    pub(crate) fn new(body: Box<dyn FnOnce()>) -> Coroutine {
        let stack = Stack::new();
        let ctx = Box::new(Context {
            sp: Cell::new(0),
            caller_sp: Cell::new(0),
            body: Cell::new(Some(body)),
            finished: Cell::new(false),
        });
        // A suspended context as the switch leaves one (lowest address
        // first), then two zero words: the trampoline starts with the
        // stack pointer 16-byte aligned, below a null return address.
        let r12 = ptr::from_ref::<Context>(&ctx) as usize;
        let ret = quartz_threadsim_coro_trampoline as *const () as usize;
        // Control words, r15, r14, r13, r12, rbx, rbp, return address.
        let frame: [usize; 10] = [INITIAL_CONTROL_WORDS, 0, 0, 0, r12, 0, 0, ret, 0, 0];
        let sp = stack.top() - std::mem::size_of_val(&frame);
        // SAFETY: `[sp, top)` lies in the stack's usable part, which the
        // new allocation owns alone.
        unsafe { ptr::write(sp as *mut [usize; 10], frame) };
        ctx.sp.set(sp);
        Coroutine {
            ctx,
            stack: Some(stack),
        }
    }

    /// Runs the coroutine until it suspends or its body returns. Returns
    /// `true` once the body has returned; its stack has then been freed.
    ///
    /// # Panics
    ///
    /// Panics if the body has already returned.
    pub(crate) fn resume(&mut self) -> bool {
        assert!(!self.ctx.finished.get(), "resumed a finished coroutine");
        let outer = CURRENT.replace(ptr::from_ref::<Context>(&self.ctx));
        // SAFETY: `sp` holds the context saved on this coroutine's stack
        // (by `new` or by its last switch out), which `self` keeps
        // allocated. Our own context goes to `caller_sp`, which `suspend`
        // and `entry` switch back to while this frame is still live:
        // `self` is borrowed until the switch returns, and `CURRENT`
        // names this coroutine only until then.
        unsafe { quartz_threadsim_coro_switch(self.ctx.caller_sp.as_ptr(), self.ctx.sp.get()) };
        CURRENT.set(outer);
        if !self.ctx.finished.get() {
            return false;
        }
        self.stack = None;
        true
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if self.ctx.body.take().is_none() {
            if let Some(stack) = self.stack.take() {
                // Suspended with live frames, which something may still
                // reference (a scoped thread, say): leak them (rule 3).
                std::mem::forget(stack);
            }
        }
    }
}

/// Switches out of the innermost coroutine running on this OS thread,
/// back to the code that resumed it; returns when it is next resumed.
///
/// # Panics
///
/// Panics when called outside every coroutine.
pub(crate) fn suspend() {
    let ctx = CURRENT.get();
    assert!(!ctx.is_null(), "suspend called outside a coroutine");
    // SAFETY: `CURRENT` names a context only while its `resume` is
    // switched into it and the owning `Coroutine` is borrowed, so the box
    // is alive. We run on that coroutine's stack: a nested coroutine
    // would be `CURRENT` instead, and `resume` restores the outer value
    // before any other code runs.
    unsafe {
        let ctx = &*ctx;
        quartz_threadsim_coro_switch(ctx.sp.as_ptr(), ctx.caller_sp.get());
    }
}

/// Runs a coroutine's body on its own stack, then switches out for the
/// last time. Called only by the trampoline, with the context pointer
/// `Coroutine::new` put in r12.
///
/// # Safety
///
/// `ctx` must point to the live context of the coroutine being resumed.
unsafe extern "C" fn entry(ctx: *const Context) -> ! {
    // SAFETY: the first `resume` of the coroutine that owns `ctx` is
    // running, so the box is alive (caller contract).
    let ctx = unsafe { &*ctx };
    if let Some(body) = ctx.body.take() {
        body();
    }
    ctx.finished.set(true);
    // SAFETY: as in `suspend`; `resume` never switches into a finished
    // coroutine, so the context saved here is never loaded.
    unsafe { quartz_threadsim_coro_switch(ctx.sp.as_ptr(), ctx.caller_sp.get()) };
    unreachable!("a finished coroutine was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_and_suspend_alternate_and_nest() {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let l = std::rc::Rc::clone(&log);
        let mut outer = Coroutine::new(Box::new(move || {
            l.borrow_mut().push("outer 1");
            let l2 = std::rc::Rc::clone(&l);
            let mut inner = Coroutine::new(Box::new(move || {
                l2.borrow_mut().push("inner 1");
                suspend();
                l2.borrow_mut().push("inner 2");
            }));
            assert!(!inner.resume());
            suspend(); // suspends `outer`, not `inner`
            l.borrow_mut().push("outer 2");
            assert!(inner.resume());
        }));
        assert!(!outer.resume());
        assert_eq!(*log.borrow(), ["outer 1", "inner 1"]);
        assert!(outer.resume());
        assert_eq!(*log.borrow(), ["outer 1", "inner 1", "outer 2", "inner 2"]);
    }

    #[test]
    #[should_panic(expected = "outside a coroutine")]
    fn suspend_outside_a_coroutine_panics() {
        suspend();
    }

    #[test]
    fn stacks_are_freed_when_finished_or_never_started() {
        let before = live_stacks();
        let mut co = Coroutine::new(Box::new(suspend));
        let unstarted = Coroutine::new(Box::new(|| {}));
        assert_eq!(live_stacks(), before + 2);
        drop(unstarted);
        assert_eq!(live_stacks(), before + 1);
        assert!(!co.resume());
        assert!(co.resume());
        assert_eq!(live_stacks(), before);
    }

    #[test]
    fn the_guard_page_below_each_stack_is_inaccessible() {
        let stack = Stack::new();
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read own mappings");
        let perms_at = |addr: usize| {
            maps.lines().find_map(|l| {
                let (range, rest) = l.split_once(' ')?;
                let (lo, hi) = range.split_once('-')?;
                let lo = usize::from_str_radix(lo, 16).ok()?;
                let hi = usize::from_str_radix(hi, 16).ok()?;
                (lo..hi).contains(&addr).then(|| rest[..4].to_owned())
            })
        };
        let guard = stack.guard as usize;
        assert_eq!(perms_at(guard).as_deref(), Some("---p"));
        assert_eq!(perms_at(guard + PAGE - 1).as_deref(), Some("---p"));
        assert_eq!(perms_at(guard + PAGE).as_deref(), Some("rw-p"));
        assert_eq!(perms_at(stack.top() - 1).as_deref(), Some("rw-p"));
    }

    #[test]
    fn float_control_words_are_per_coroutine() {
        fn mxcsr() -> u32 {
            let mut v = 0u32;
            // SAFETY: stores the MXCSR into a local.
            unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut v) };
            v
        }
        fn set_mxcsr(v: u32) {
            // SAFETY: loads a valid MXCSR value from a local.
            unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &v) };
        }
        let host = mxcsr();
        let mut co = Coroutine::new(Box::new(|| {
            // Round toward zero inside the coroutine only.
            set_mxcsr(0x7F80);
            suspend();
            assert_eq!(mxcsr(), 0x7F80, "the coroutine's MXCSR survived");
        }));
        assert!(!co.resume());
        assert_eq!(mxcsr(), host, "the resumer's MXCSR is restored");
        assert!(co.resume());
    }
}
