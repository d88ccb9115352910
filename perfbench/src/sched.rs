//! Scheduling aids that keep the host out of the measurement.
//!
//! [`pin_to_one_cpu`] runs the whole benchmark on one CPU: spread over
//! two vCPUs, the server's worker, its reactor and the generator gave
//! capacities that moved by ±20% from run to run with how a shared host
//! scheduled the second vCPU.
//!
//! [`KeepAwake`] keeps that CPU out of its idle state while a run
//! measures. On a virtual machine an idle vCPU halts, and waking it
//! again — for a timer or a socket that turned readable — can take
//! milliseconds: a 500 µs sleep on an idle two-vCPU guest oversleeps by
//! about 1 ms at p99 and by up to 20 ms at worst, and kept awake by
//! about 70 µs. That latency belongs to the hypervisor, not to the
//! program, yet it would land in every open-loop latency. A
//! `SCHED_IDLE` spinner keeps the CPU awake; the kernel runs it only
//! when nothing else wants the CPU, so it never delays the program.
//!
//! [`Urgent`] lets the load generator preempt the program's threads, so
//! it sends on time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

mod sys {
    use std::ffi::c_int;

    #[repr(C)]
    pub struct SchedParam {
        pub priority: c_int,
    }

    pub const SCHED_OTHER: c_int = 0;
    pub const SCHED_FIFO: c_int = 1;
    pub const SCHED_IDLE: c_int = 5;

    /// Sets the calling thread's policy; `true` on success.
    pub fn set(policy: c_int, priority: c_int) -> bool {
        let param = SchedParam { priority };
        // SAFETY: pid 0 names the calling thread; `param` is a valid
        // sched_param for the duration of the call.
        unsafe { sched_setscheduler(0, policy, &param) == 0 }
    }

    extern "C" {
        pub fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u8) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u8) -> c_int;
    }

    /// Bytes in the kernel's CPU mask (`cpu_set_t`, 1024 CPUs).
    pub const MASK_BYTES: usize = 128;
}

/// Spinners that run while the guard lives; dropping it stops and
/// joins them.
#[derive(Debug)]
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one idle-priority spinner per available CPU.
    pub fn start() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Lowering a thread to SCHED_IDLE needs no privilege;
                    // without it a spinner would compete with the
                    // program, so it leaves the CPU alone instead.
                    if !sys::set(sys::SCHED_IDLE, 0) {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// Runs the calling thread under `SCHED_FIFO` while the guard lives.
///
/// The generator sleeps between sends. Woken while the server's worker
/// is mid-conversion on the same CPU, a normal-priority generator can
/// wait out the worker's time slice — about one 2048-sample conversion,
/// 3 ms — and send that late. At real-time priority it preempts at
/// once; it needs the CPU for microseconds per request. Threads spawned
/// under the guard would inherit the policy, so spawn none. Without the
/// privilege to raise the policy the guard does nothing, and the
/// generator's lateness, reported with every phase, shows the cost.
#[derive(Debug)]
pub struct Urgent {
    raised: bool,
}

impl Urgent {
    /// Raises the calling thread to the lowest real-time priority.
    pub fn enter() -> Self {
        Self {
            raised: sys::set(sys::SCHED_FIFO, 1),
        }
    }
}

impl Drop for Urgent {
    fn drop(&mut self) {
        if self.raised {
            sys::set(sys::SCHED_OTHER, 0);
        }
    }
}

/// Restricts this thread, and every thread it spawns from now on, to
/// the first CPU it may run on; `false` when the kernel refuses.
pub fn pin_to_one_cpu() -> bool {
    let mut mask = [0u8; sys::MASK_BYTES];
    // SAFETY: pid 0 names the calling thread; `mask` is writable for the
    // `MASK_BYTES` the call is told it holds.
    if unsafe { sys::sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(byte) = mask.iter().position(|&b| b != 0) else {
        return false;
    };
    let first = mask[byte] & mask[byte].wrapping_neg();
    mask = [0u8; sys::MASK_BYTES];
    mask[byte] = first;
    // SAFETY: as above, with `mask` readable for `MASK_BYTES`.
    unsafe { sys::sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
}
