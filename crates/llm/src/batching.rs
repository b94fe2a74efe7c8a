//! Continuous-batching bookkeeping.
//!
//! xFasterTransformer-style serving: prompts wait in a FCFS prefill queue
//! (§VI-C1: "we simply use FCFS to schedule prompts"), and prefilled
//! requests join the decode pool, which emits one token per request per
//! iteration up to the configured batch size. Arrival-rate variations reach
//! the AU usage pattern through batch-size variations (§IV-A3).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use aum_sim::time::{SimDuration, SimTime};

use crate::request::{Request, RequestId};

/// FCFS queue of requests awaiting prefill.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrefillQueue {
    waiting: VecDeque<Request>,
}

impl PrefillQueue {
    /// Empty queue.
    #[must_use]
    pub fn new() -> Self {
        PrefillQueue::default()
    }

    /// Enqueues an arrived request.
    pub fn push(&mut self, request: Request) {
        self.waiting.push_back(request);
    }

    /// Requests waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.waiting.len()
    }

    /// True when nothing waits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// Waiting time of the head request at `now` (the paper's `t_wait`),
    /// zero when empty.
    #[must_use]
    pub fn head_wait(&self, now: SimTime) -> SimDuration {
        self.waiting
            .front()
            .map(|r| now.saturating_since(r.arrival))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Pops the oldest waiting request (FCFS), if any.
    pub fn pop(&mut self) -> Option<Request> {
        let _prof = aum_sim::prof::scope("batch.pop");
        self.waiting.pop_front()
    }
}

/// A request actively decoding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActiveRequest {
    /// Request id.
    pub id: RequestId,
    /// Current context length (prompt + generated so far).
    pub context: usize,
    /// Output tokens still to generate.
    pub remaining: usize,
    /// Tokens generated so far.
    pub generated: usize,
    /// Sum of token execution times, seconds (for LAG).
    pub exec_sum_secs: f64,
    /// Decode-pool admission instant, seconds (wall-clock TPOT accounting).
    pub admitted_secs: f64,
}

impl ActiveRequest {
    /// Starts decoding a prefilled request. The first token was produced by
    /// prefill, so `remaining` is `output_len − 1` (floored at zero).
    #[must_use]
    pub fn start(request: &Request) -> Self {
        ActiveRequest {
            id: request.id,
            context: request.input_len + 1,
            remaining: request.output_len.saturating_sub(1),
            generated: 0,
            exec_sum_secs: 0.0,
            admitted_secs: 0.0,
        }
    }

    /// Stamps the decode-pool admission instant.
    #[must_use]
    pub fn admitted_at(mut self, secs: f64) -> Self {
        self.admitted_secs = secs;
        self
    }

    /// The paper's `LAG_i = Σ_token (d_TPOT − e_token)`, in seconds:
    /// positive means the request is ahead of its deadline schedule.
    #[must_use]
    pub fn lag_secs(&self, d_tpot: SimDuration) -> f64 {
        self.generated as f64 * d_tpot.as_secs_f64() - self.exec_sum_secs
    }
}

/// The decode pool under continuous batching.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecodePool {
    active: Vec<ActiveRequest>,
    max_batch: usize,
}

impl DecodePool {
    /// Creates a pool with the given batch cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    #[must_use]
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch size must be positive");
        DecodePool {
            active: Vec::new(),
            max_batch,
        }
    }

    /// Number of requests that can still be admitted.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.max_batch.saturating_sub(self.active.len())
    }

    /// Active batch size.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.active.len()
    }

    /// True when no request is decoding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Admits a prefilled request.
    ///
    /// # Panics
    ///
    /// Panics if the pool is full.
    pub fn admit(&mut self, request: ActiveRequest) {
        assert!(self.free_slots() > 0, "decode pool is full");
        self.active.push(request);
    }

    /// Mean context length of active requests (1 when empty).
    #[must_use]
    pub fn mean_context(&self) -> usize {
        if self.active.is_empty() {
            return 1;
        }
        let sum: usize = self.active.iter().map(|r| r.context).sum();
        (sum / self.active.len()).max(1)
    }

    /// Completes one decode iteration of execution time `exec`: every
    /// active request emits one token; finished requests are retired and
    /// returned.
    pub fn step(&mut self, exec: SimDuration) -> Vec<ActiveRequest> {
        let _prof = aum_sim::prof::scope("batch.step");
        let secs = exec.as_secs_f64();
        for r in &mut self.active {
            r.context += 1;
            r.generated += 1;
            r.remaining -= 1;
            r.exec_sum_secs += secs;
        }
        let mut finished = Vec::new();
        self.active.retain(|r| {
            if r.remaining == 0 {
                finished.push(*r);
                false
            } else {
                true
            }
        });
        finished
    }

    /// Worst (most negative) LAG across active requests, or `+∞` when the
    /// pool is empty — the controller's "how far behind is decode" signal.
    #[must_use]
    pub fn worst_lag_secs(&self, d_tpot: SimDuration) -> f64 {
        self.active
            .iter()
            .map(|r| r.lag_secs(d_tpot))
            .fold(f64::INFINITY, f64::min)
    }

    /// View of the active requests.
    #[must_use]
    pub fn active(&self) -> &[ActiveRequest] {
        &self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival_ms: u64) -> Request {
        Request::new(id, SimTime::from_millis(arrival_ms), 100, 5)
    }

    #[test]
    fn fcfs_queue_pops_in_order() {
        let mut q = PrefillQueue::new();
        q.push(req(0, 0));
        q.push(req(1, 10));
        q.push(req(2, 20));
        assert_eq!(q.pop().map(|r| r.id.0), Some(0));
        assert_eq!(q.pop().map(|r| r.id.0), Some(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn head_wait_measures_oldest() {
        let mut q = PrefillQueue::new();
        assert_eq!(q.head_wait(SimTime::from_secs(1)), SimDuration::ZERO);
        q.push(req(0, 100));
        q.push(req(1, 900));
        assert_eq!(
            q.head_wait(SimTime::from_millis(600)),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn active_request_counts_first_token_as_prefilled() {
        let a = ActiveRequest::start(&req(0, 0));
        assert_eq!(a.remaining, 4);
        assert_eq!(a.context, 101);
    }

    #[test]
    fn pool_steps_emit_and_retire() {
        let mut pool = DecodePool::new(16);
        pool.admit(ActiveRequest::start(&req(0, 0))); // 4 remaining
        let mut finished = Vec::new();
        for _ in 0..4 {
            finished.extend(pool.step(SimDuration::from_millis(80)));
        }
        assert_eq!(finished.len(), 1);
        assert!(pool.is_empty());
        let done = finished[0];
        assert_eq!(done.generated, 4);
        assert!((done.exec_sum_secs - 0.32).abs() < 1e-9);
    }

    #[test]
    fn lag_positive_when_ahead() {
        let mut pool = DecodePool::new(4);
        pool.admit(ActiveRequest::start(&req(0, 0)));
        let _ = pool.step(SimDuration::from_millis(50));
        let lag = pool.worst_lag_secs(SimDuration::from_millis(100));
        assert!(
            (lag - 0.05).abs() < 1e-9,
            "50ms token vs 100ms budget → +50ms lag"
        );
    }

    #[test]
    fn lag_negative_when_behind() {
        let mut pool = DecodePool::new(4);
        pool.admit(ActiveRequest::start(&req(0, 0)));
        let _ = pool.step(SimDuration::from_millis(180));
        let lag = pool.worst_lag_secs(SimDuration::from_millis(100));
        assert!((lag + 0.08).abs() < 1e-9);
    }

    #[test]
    fn empty_pool_lag_is_infinite() {
        let pool = DecodePool::new(4);
        assert!(pool
            .worst_lag_secs(SimDuration::from_millis(100))
            .is_infinite());
    }

    #[test]
    fn mean_context_averages() {
        let mut pool = DecodePool::new(4);
        let mut a = ActiveRequest::start(&req(0, 0));
        a.context = 100;
        let mut b = ActiveRequest::start(&req(1, 0));
        b.context = 300;
        pool.admit(a);
        pool.admit(b);
        assert_eq!(pool.mean_context(), 200);
        assert_eq!(DecodePool::new(4).mean_context(), 1);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn admit_over_capacity_panics() {
        let mut pool = DecodePool::new(1);
        pool.admit(ActiveRequest::start(&req(0, 0)));
        pool.admit(ActiveRequest::start(&req(1, 0)));
    }
}
