//! Open-loop load generation: a seeded arrival schedule, and the
//! accounting that times every request from the moment it was *due* —
//! so a generator that falls behind charges its lateness to the requests
//! it delayed instead of hiding it.

use std::time::Duration;

use dfv::bits::SplitMix64;

/// Poisson arrivals at `rate` per second over `window`, as offsets from
/// the start of the phase. The same seed gives the same schedule.
pub fn schedule(rng: &mut SplitMix64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u keeps ln away from 0.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// What happened to one scheduled request (offsets from phase start).
#[derive(Debug, Clone, Copy, Default)]
pub struct Request {
    pub due: Duration,
    pub sent: Option<Duration>,
    pub done: Option<Duration>,
}

/// Per-request timings of one open-loop phase.
#[derive(Debug, Default)]
pub struct Log {
    pub requests: Vec<Request>,
}

impl Log {
    pub fn new(due: &[Duration]) -> Log {
        Log {
            requests: due
                .iter()
                .map(|&due| Request {
                    due,
                    ..Request::default()
                })
                .collect(),
        }
    }

    /// Latency of every completed request, due to done, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter_map(|r| r.done.map(|d| ms(d.saturating_sub(r.due))))
            .collect()
    }

    /// How late the generator sent each request, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter_map(|r| r.sent.map(|s| ms(s.saturating_sub(r.due))))
            .collect()
    }

    /// Requests due by `t` that had not completed by `t`: the backlog.
    pub fn backlog_at(&self, t: Duration) -> usize {
        self.requests
            .iter()
            .filter(|r| r.due <= t && r.done.is_none_or(|d| d > t))
            .count()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms_d(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn a_stalled_generator_charges_its_delay_to_later_requests() {
        // Due every 10 ms; the generator stalls 15 ms before the second
        // send and then sends the third right away.
        let mut log = Log::new(&[ms_d(0), ms_d(10), ms_d(20), ms_d(30)]);
        let sent = [0, 25, 26, 30];
        let done = [5, 30, 31, 35];
        for (r, (s, d)) in log.requests.iter_mut().zip(sent.iter().zip(done)) {
            r.sent = Some(ms_d(*s));
            r.done = Some(ms_d(d));
        }
        assert_eq!(log.lateness_ms(), [0.0, 15.0, 6.0, 0.0]);
        // Measured from *due*, not from send: the stall shows.
        assert_eq!(log.latencies_ms(), [5.0, 20.0, 11.0, 5.0]);
        assert_eq!(log.backlog_at(ms_d(22)), 2);
        assert_eq!(log.backlog_at(ms_d(40)), 0);
    }

    #[test]
    fn unanswered_requests_have_no_latency_and_stay_in_the_backlog() {
        let mut log = Log::new(&[ms_d(0), ms_d(1)]);
        log.requests[0].sent = Some(ms_d(0));
        log.requests[0].done = Some(ms_d(3));
        log.requests[1].sent = Some(ms_d(1));
        assert_eq!(log.latencies_ms().len(), 1);
        assert_eq!(log.backlog_at(ms_d(100)), 1);
    }

    #[test]
    fn schedule_is_seeded_and_near_its_rate() {
        let a = schedule(&mut SplitMix64::new(9), 200.0, Duration::from_secs(10));
        let b = schedule(&mut SplitMix64::new(9), 200.0, Duration::from_secs(10));
        assert_eq!(a, b);
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
