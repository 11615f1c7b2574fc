//! The syscall boundary.
//!
//! The paper's key mechanism: "applications running inside the enclave
//! cannot directly issue system calls. Instead … the application must
//! issue an OCALL to exit the enclave and then perform the operation"
//! (§II-B). The same workload code drives a [`SyscallInterface`]; whether
//! each call costs a ~300 ns native trap or a ~8 µs enclave round trip is
//! decided by which implementation is plugged in — that asymmetry, times
//! the call counts, *is* the paper's SGX overhead.
//!
//! [`SyscallInterface::run`] is the interface: a choreography is charged
//! in one pass as the integer sum of its calls' prices, and a single call
//! is a run of one — so a run costs what its calls cost one by one, to
//! the nanosecond.

use shield5g_hmee::cost::CostModel;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;

/// A syscall issued by a workload, with the payload crossing the boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Syscall {
    /// Wait for socket readiness (Pistache's event loop).
    EpollWait,
    /// Modify the epoll interest set.
    EpollCtl,
    /// Accept a TCP connection.
    Accept,
    /// Read from a socket/file descriptor.
    Read {
        /// Bytes read (cross the boundary inbound).
        bytes: usize,
    },
    /// Write to a socket/file descriptor.
    Write {
        /// Bytes written (cross the boundary outbound).
        bytes: usize,
    },
    /// Close a descriptor.
    Close,
    /// Read the wall clock (Pistache timers call this constantly; inside
    /// an enclave there is no vDSO, so each one is a full OCALL).
    ClockGettime,
    /// Descriptor flag manipulation.
    Fcntl,
    /// Socket option setup.
    Setsockopt,
    /// Obtain peer address after accept.
    Getpeername,
    /// Create a socket.
    Socket,
    /// Bind a listening address.
    Bind,
    /// Start listening.
    Listen,
    /// Futex wait/wake (thread synchronisation).
    Futex,
    /// Memory management (brk/mmap).
    Mmap {
        /// Bytes mapped.
        bytes: usize,
    },
    /// Open a file by path.
    OpenFile,
    /// Kernel entropy (OpenSSL seeding).
    GetRandom,
}

impl Syscall {
    /// Bytes crossing the enclave boundary for this call.
    #[must_use]
    pub fn boundary_bytes(&self) -> usize {
        match self {
            Syscall::Read { bytes } | Syscall::Write { bytes } => *bytes,
            Syscall::Mmap { .. } => 0, // mapping metadata only
            Syscall::GetRandom => 48,
            _ => 32, // argument structs
        }
    }

    /// Host-kernel service time in nanoseconds (identical for native and
    /// shielded deployments — the *kernel* does the same work either way).
    #[must_use]
    pub fn host_ns(&self) -> u64 {
        let base = match self {
            Syscall::EpollWait => 650,
            Syscall::EpollCtl => 380,
            Syscall::Accept => 1_800,
            Syscall::Read { .. } => 450,
            Syscall::Write { .. } => 500,
            Syscall::Close => 350,
            Syscall::ClockGettime => 60,
            Syscall::Fcntl => 250,
            Syscall::Setsockopt => 300,
            Syscall::Getpeername => 280,
            Syscall::Socket => 900,
            Syscall::Bind => 500,
            Syscall::Listen => 450,
            Syscall::Futex => 550,
            Syscall::Mmap { .. } => 1_100,
            Syscall::OpenFile => 900,
            Syscall::GetRandom => 400,
        };
        base + (self.boundary_bytes() as u64) / 8
    }
}

/// What a workload issues syscalls through.
pub trait SyscallInterface {
    /// Executes a run of syscalls in order, advancing the clock once by
    /// the sum of what each costs.
    fn run(&mut self, env: &mut Env, calls: &[Syscall]);

    /// Executes one syscall: the run of one.
    fn syscall(&mut self, env: &mut Env, call: Syscall) {
        self.run(env, &[call]);
    }

    /// Whether calls cross an enclave boundary.
    fn is_shielded(&self) -> bool;
}

/// Direct syscalls: the container / monolithic deployment path.
#[derive(Clone, Debug)]
pub struct NativeSyscalls {
    cost: CostModel,
}

impl NativeSyscalls {
    /// Creates a native syscall interface under `cost`.
    #[must_use]
    pub fn new(cost: CostModel) -> Self {
        NativeSyscalls { cost }
    }
}

impl SyscallInterface for NativeSyscalls {
    fn run(&mut self, env: &mut Env, calls: &[Syscall]) {
        let n = calls.len() as u64;
        let host: u64 = calls.iter().map(Syscall::host_ns).sum();
        env.clock
            .advance(self.cost.native_syscall() * n + SimDuration::from_nanos(host));
    }

    fn is_shielded(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cost_scales_with_bytes() {
        assert!(Syscall::Read { bytes: 4096 }.host_ns() > Syscall::Read { bytes: 0 }.host_ns());
    }

    #[test]
    fn boundary_bytes_reflect_payload() {
        assert_eq!(Syscall::Write { bytes: 100 }.boundary_bytes(), 100);
        assert_eq!(Syscall::Close.boundary_bytes(), 32);
    }

    #[test]
    fn native_syscall_charges_clock_and_counts() {
        let mut env = Env::new(1);
        let mut sys = NativeSyscalls::new(CostModel::default());
        let t0 = env.clock.now();
        sys.syscall(&mut env, Syscall::Accept);
        assert!(env.clock.now() > t0);
        assert!(!sys.is_shielded());
    }

    #[test]
    fn native_cost_is_sub_microsecond_for_cheap_calls() {
        let mut env = Env::new(1);
        let mut sys = NativeSyscalls::new(CostModel::default());
        let t0 = env.clock.now();
        sys.syscall(&mut env, Syscall::ClockGettime);
        let spent = env.clock.now() - t0;
        assert!(spent < SimDuration::from_micros(1), "{spent}");
    }
}
