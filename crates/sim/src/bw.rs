//! Bandwidth-limited resources modeled as fluid queues.
//!
//! Every throughput-limited component (DRAM channel, L2 port, NoC link,
//! L1 port) is a [`BwResource`]: requests acquire service in arrival order
//! and the resource's *virtual time* advances by `bytes / bytes_per_cycle`
//! per request. A request arriving while the resource is backed up is
//! queued behind the backlog — this reproduces bandwidth saturation and
//! queueing delay without simulating individual buffer slots.

/// `t.ceil() as u64` for a finite, non-negative virtual time, without
/// the libm `ceil` call the float form compiles to on baseline x86-64.
/// `t as u64` truncates, which is the floor for `t >= 0`; the floor
/// converts back to `f64` exactly (below 2^53 every integer is
/// representable, above it `t` is already an integer), so the compare
/// tells exactly whether `t` had a fractional part.
#[inline]
fn ceil_cycle(t: f64) -> u64 {
    let floor = t as u64;
    floor + u64::from((floor as f64) < t)
}

/// A bandwidth-limited, work-conserving FIFO resource.
///
/// # Examples
///
/// ```
/// use sim::bw::BwResource;
///
/// // A 64 B/cycle link.
/// let mut link = BwResource::new(64.0);
/// // Two back-to-back 128 B transfers at cycle 0: the second queues.
/// assert_eq!(link.acquire(128, 0), 2);
/// assert_eq!(link.acquire(128, 0), 4);
/// // After the backlog drains, service is immediate again.
/// assert_eq!(link.acquire(64, 100), 101);
/// ```
#[derive(Debug, Clone)]
pub struct BwResource {
    bytes_per_cycle: f64,
    virtual_time: f64,
    busy_byte_cycles: f64,
}

impl BwResource {
    /// Creates a resource serving `bytes_per_cycle` bytes per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive (use
    /// [`BwResource::unlimited`] for an infinite resource).
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle > 0.0,
            "bandwidth must be positive, got {bytes_per_cycle}"
        );
        BwResource {
            bytes_per_cycle,
            virtual_time: 0.0,
            busy_byte_cycles: 0.0,
        }
    }

    /// A resource with unbounded bandwidth (zero service time). Used for
    /// the ideal-interconnect (monolithic) comparison runs.
    pub fn unlimited() -> Self {
        BwResource {
            bytes_per_cycle: f64::INFINITY,
            virtual_time: 0.0,
            busy_byte_cycles: 0.0,
        }
    }

    /// Requests service for `bytes` starting no earlier than cycle `now`;
    /// returns the cycle at which the transfer completes.
    pub fn acquire(&mut self, bytes: u64, now: u64) -> u64 {
        let start = self.virtual_time.max(now as f64);
        if self.bytes_per_cycle.is_infinite() {
            self.virtual_time = start;
            return now;
        }
        let service = bytes as f64 / self.bytes_per_cycle;
        self.virtual_time = start + service;
        self.busy_byte_cycles += bytes as f64;
        ceil_cycle(self.virtual_time)
    }

    /// The cycle at which the current backlog drains.
    pub fn backlog_until(&self) -> u64 {
        ceil_cycle(self.virtual_time)
    }

    /// Total bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.busy_byte_cycles as u64
    }

    /// Average utilization over `elapsed_cycles` (bytes served over
    /// capacity); zero for an unlimited resource or zero elapsed time.
    pub fn utilization(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 || self.bytes_per_cycle.is_infinite() {
            return 0.0;
        }
        (self.busy_byte_cycles / (self.bytes_per_cycle * elapsed_cycles as f64)).min(1.0)
    }

    /// Resets the queue state (but not the served-bytes statistics).
    pub fn reset_queue(&mut self) {
        self.virtual_time = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_service_time() {
        let mut r = BwResource::new(32.0);
        // 128 B at 32 B/cycle -> done at cycle 4.
        assert_eq!(r.acquire(128, 0), 4);
    }

    #[test]
    fn backlog_queues_requests() {
        let mut r = BwResource::new(32.0);
        let a = r.acquire(128, 0);
        let b = r.acquire(128, 0);
        let c = r.acquire(128, 0);
        assert_eq!(a, 4);
        assert_eq!(b, 8);
        assert_eq!(c, 12);
        assert_eq!(r.backlog_until(), 12);
    }

    #[test]
    fn idle_resource_serves_at_arrival() {
        let mut r = BwResource::new(32.0);
        r.acquire(128, 0);
        // Arriving long after the backlog drained: no queueing delay.
        assert_eq!(r.acquire(32, 1000), 1001);
    }

    #[test]
    fn fractional_service_accumulates_exactly() {
        let mut r = BwResource::new(3.0);
        // Each 1-byte transfer takes 1/3 cycle; three of them take 1 cycle.
        let t1 = r.acquire(1, 0);
        let t2 = r.acquire(1, 0);
        let t3 = r.acquire(1, 0);
        assert_eq!(t1, 1);
        assert_eq!(t2, 1);
        assert_eq!(t3, 1);
        let t4 = r.acquire(1, 0);
        assert_eq!(t4, 2);
    }

    #[test]
    fn integer_ceil_matches_float_ceil() {
        // Ring links at half the per-GPM bandwidth serve fractional
        // bytes per cycle, so virtual times land on every kind of
        // fraction; whole and huge values pin the edges.
        for rate in [256.0, 128.0, 96.0, 85.333_333_333_333_33, 42.5, 3.0, 0.7] {
            let mut r = BwResource::new(rate);
            for i in 0..5_000u64 {
                let done = r.acquire(32 + (i * 37) % 160, i * 3);
                assert_eq!(done, r.virtual_time.ceil() as u64, "rate {rate}");
            }
        }
        for t in [
            0.0,
            0.25,
            1.0,
            1.5,
            4503599627370495.5,
            9007199254740992.0,
            1e19,
        ] {
            assert_eq!(ceil_cycle(t), t.ceil() as u64, "t {t}");
        }
    }

    #[test]
    fn unlimited_resource_is_instant() {
        let mut r = BwResource::unlimited();
        assert_eq!(r.acquire(1 << 30, 7), 7);
        assert_eq!(r.acquire(1 << 30, 7), 7);
        assert_eq!(r.utilization(100), 0.0);
    }

    #[test]
    fn utilization_tracks_served_bytes() {
        let mut r = BwResource::new(10.0);
        r.acquire(50, 0);
        assert!((r.utilization(10) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(0), 0.0);
        assert_eq!(r.bytes_served(), 50);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = BwResource::new(0.0);
    }

    #[test]
    fn reset_queue_clears_backlog() {
        let mut r = BwResource::new(1.0);
        r.acquire(1000, 0);
        assert_eq!(r.backlog_until(), 1000);
        r.reset_queue();
        assert_eq!(r.acquire(1, 0), 1);
    }
}
