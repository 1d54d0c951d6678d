//! Bounded admission queue + batching worker pool.
//!
//! The front-end enqueues; a small worker pool drains the queue in batches
//! (grouping structurally similar requests so embedding-cache hits cluster),
//! hands each job to the server's [`Answerer`] (the solve engine in
//! `mqo_serve`, the cell fleet in `mqo_router`) and answers it through its
//! [`Responder`] callback. Overload is a typed
//! [`Reject::QueueFull`] at admission time — the queue never grows without
//! bound and never panics under pressure — and shutdown stops admissions
//! while the workers drain everything already accepted.
//!
//! Robustness model (DESIGN.md §9):
//!
//! * every answer runs inside `catch_unwind`: a panicking request is answered
//!   with a typed `500 internal_error` and the worker keeps draining its
//!   batch — one poisoned request cannot take its batchmates down;
//! * outside that boundary a worker only dequeues, delivers answers and
//!   bumps atomic counters, none of which can panic, so workers never die
//!   and need no respawn (process death is the fleet supervisor's job,
//!   DESIGN.md §14);
//! * every lock acquisition recovers from poisoning via
//!   [`crate::metrics::lock_recover`] — the queue state is a `VecDeque` of
//!   independent jobs with no cross-field invariant, so a poisoned guard is
//!   safe to adopt as-is.

use crate::api::{Reject, SolveRequest};
use crate::chaos::panic_message;
use crate::event_loop::Response;
use crate::metrics::{lock_recover, wait_recover, Metrics};
use crate::server::Answerer;
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Queue/scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum queued (admitted but not yet dispatched) requests.
    pub depth: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Maximum requests one worker claims per wake-up.
    pub batch_size: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            depth: 64,
            workers: 2,
            batch_size: 8,
        }
    }
}

/// Boxed completion callback invoked with the job's final answer.
type ResponseCallback = Box<dyn FnOnce(Response) + Send>;

/// Where a job's answer goes: a callback that posts the response back to
/// the owning event-loop shard and wakes its `poll`.
pub struct Responder(Option<ResponseCallback>);

impl Responder {
    /// A responder that invokes `f` with the answer. Invoked from a worker
    /// thread, so `f` must be cheap and non-blocking (the event loop's
    /// completers only push onto a channel and write one wakeup byte).
    #[must_use]
    pub fn callback(f: impl FnOnce(Response) + Send + 'static) -> Responder {
        Responder(Some(Box::new(f)))
    }

    /// Delivers the answer.
    pub fn respond(mut self, response: Response) {
        if let Some(f) = self.0.take() {
            f(response);
        }
    }
}

impl Drop for Responder {
    /// Safety net: a responder dropped without answering (a queue dropped
    /// before its workers drained it) still tells the client the service
    /// is going away.
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(Response::reject(&Reject::ShuttingDown));
        }
    }
}

/// One admitted request awaiting dispatch.
struct Job {
    req: SolveRequest,
    enqueued: Instant,
    /// Expiry instant and the client's `deadline_ms` it came from.
    deadline: Option<(Instant, u64)>,
    responder: Responder,
}

struct QueueState {
    jobs: VecDeque<Job>,
    accepting: bool,
}

/// The admission queue and its worker pool.
pub struct SolveQueue {
    state: Mutex<QueueState>,
    wakeup: Condvar,
    config: QueueConfig,
    work: Arc<dyn Answerer>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for SolveQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveQueue")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SolveQueue {
    /// Creates the queue without spawning workers (tests use this to
    /// exercise admission behaviour deterministically).
    pub fn new(work: Arc<dyn Answerer>, config: QueueConfig) -> Arc<Self> {
        Arc::new(SolveQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                accepting: true,
            }),
            wakeup: Condvar::new(),
            config,
            work,
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Creates the queue and spawns its worker pool. If a worker thread
    /// cannot be spawned, the ones already running are stopped and joined
    /// before the error is returned.
    pub fn start(work: Arc<dyn Answerer>, config: QueueConfig) -> io::Result<Arc<Self>> {
        let queue = Self::new(work, config);
        queue.spawn_workers().inspect_err(|_| queue.shutdown())?;
        Ok(queue)
    }

    /// Spawns the worker pool (calling it twice doubles the pool; call
    /// once).
    pub fn spawn_workers(self: &Arc<Self>) -> io::Result<()> {
        let mut workers = lock_recover(&self.workers, &self.work.metrics().lock_poison_recoveries);
        for _ in 0..self.config.workers.max(1) {
            let queue = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name(format!("mqo-worker-{}", workers.len()))
                .spawn(move || queue.worker_loop())?;
            workers.push(handle);
        }
        Ok(())
    }

    /// Admits a request whose answer is delivered through `responder`.
    /// Admission rejections (queue full, draining) hand the responder back
    /// unanswered, so the caller decides how to answer.
    pub fn submit_with(
        &self,
        req: SolveRequest,
        responder: Responder,
    ) -> Result<(), (Responder, Reject)> {
        let metrics = self.work.metrics();
        let mut state = lock_recover(&self.state, &metrics.lock_poison_recoveries);
        if !state.accepting {
            Metrics::inc(&metrics.rejected_shutdown);
            return Err((responder, Reject::ShuttingDown));
        }
        if state.jobs.len() >= self.config.depth {
            Metrics::inc(&metrics.rejected_queue_full);
            return Err((
                responder,
                Reject::QueueFull {
                    depth: self.config.depth,
                },
            ));
        }
        let deadline = req
            .deadline_ms
            .filter(|&ms| ms > 0)
            .map(|ms| (Instant::now() + std::time::Duration::from_millis(ms), ms));
        state.jobs.push_back(Job {
            req,
            enqueued: Instant::now(),
            deadline,
            responder,
        });
        metrics
            .queue_depth
            .store(state.jobs.len() as u64, Ordering::Relaxed);
        drop(state);
        self.wakeup.notify_one();
        Ok(())
    }

    /// Requests currently queued.
    pub fn depth(&self) -> usize {
        lock_recover(&self.state, &self.work.metrics().lock_poison_recoveries)
            .jobs
            .len()
    }

    /// Stops admissions, lets the workers drain every queued job, and joins
    /// them. Every admitted request receives an answer before this returns.
    pub fn shutdown(&self) {
        let recoveries = &self.work.metrics().lock_poison_recoveries;
        {
            let mut state = lock_recover(&self.state, recoveries);
            state.accepting = false;
        }
        self.wakeup.notify_all();
        let handles = std::mem::take(&mut *lock_recover(&self.workers, recoveries));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn worker_loop(&self) {
        let metrics = Arc::clone(self.work.metrics());
        loop {
            let mut batch = {
                let mut state = lock_recover(&self.state, &metrics.lock_poison_recoveries);
                loop {
                    if !state.jobs.is_empty() {
                        break;
                    }
                    if !state.accepting {
                        return;
                    }
                    state = wait_recover(self.wakeup.wait(state), &metrics.lock_poison_recoveries);
                }
                let n = self.config.batch_size.max(1).min(state.jobs.len());
                let batch: Vec<Job> = state.jobs.drain(..n).collect();
                metrics
                    .queue_depth
                    .store(state.jobs.len() as u64, Ordering::Relaxed);
                batch
            };
            Metrics::inc(&metrics.batches_dispatched);
            // Group structurally identical instances adjacently so the
            // second one of a pair hits the embedding the first just cached.
            batch.sort_by_key(|job| (job.req.problem.num_queries(), job.req.problem.num_plans()));
            for job in batch {
                if let Some((deadline, deadline_ms)) = job.deadline {
                    if Instant::now() >= deadline {
                        Metrics::inc(&metrics.rejected_deadline);
                        job.responder
                            .respond(Response::reject(&Reject::DeadlineExceeded { deadline_ms }));
                        continue;
                    }
                }
                let wait_us = job.enqueued.elapsed().as_micros() as u64;
                metrics.queue_wait.record(wait_us);
                let started = Instant::now();
                // The work is a shared reference either way; the unwind
                // boundary only isolates the panic, it does not hand the
                // closure anything another thread could observe half-updated
                // (all engine and fleet state is itself poison-recovering).
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.work.answer(&job.req, job.enqueued, wait_us)
                }));
                metrics
                    .solve_latency
                    .record(started.elapsed().as_micros() as u64);
                let response = outcome.unwrap_or_else(|payload| {
                    Metrics::inc(&metrics.worker_panics_caught);
                    Metrics::inc(&metrics.rejected_internal);
                    let detail = panic_message(payload.as_ref());
                    Response::reject(&Reject::InternalError { detail })
                });
                job.responder.respond(response);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Backend, SolveResponse};
    use crate::engine::{EngineConfig, SolveEngine};
    use mqo_chimera::graph::ChimeraGraph;
    use mqo_core::problem::MqoProblem;
    use std::sync::mpsc;

    type Answer = mpsc::Receiver<Result<SolveResponse, Reject>>;

    /// Admits `req` with a callback responder that decodes the answer and
    /// forwards it into a channel the test waits on.
    fn submit(queue: &SolveQueue, req: SolveRequest) -> Result<Answer, Reject> {
        let (tx, rx) = mpsc::channel();
        let responder = Responder::callback(move |response: Response| {
            let decoded = if response.status == 200 {
                Ok(serde_json::from_str(&response.body).expect("solve response"))
            } else {
                Err(serde_json::from_str(&response.body).expect("typed rejection"))
            };
            let _ = tx.send(decoded);
        });
        queue
            .submit_with(req, responder)
            .map(|()| rx)
            .map_err(|(_, reject)| reject)
    }

    fn tiny_problem() -> MqoProblem {
        let mut b = MqoProblem::builder();
        let q1 = b.add_query(&[2.0, 4.0]);
        let q2 = b.add_query(&[3.0, 1.0]);
        let (p2, p3) = (b.plans_of(q1)[1], b.plans_of(q2)[0]);
        b.add_saving(p2, p3, 5.0).unwrap();
        b.build().unwrap()
    }

    fn engine() -> Arc<SolveEngine> {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 20;
        cfg.device.num_gauges = 2;
        Arc::new(SolveEngine::new(cfg, Arc::new(Metrics::default())))
    }

    #[test]
    fn overload_is_a_typed_rejection_not_a_panic_or_hang() {
        // No workers running: the queue fills to its bound, then rejects.
        let queue = SolveQueue::new(
            engine(),
            QueueConfig {
                depth: 3,
                ..QueueConfig::default()
            },
        );
        let mut pending = Vec::new();
        for i in 0..3 {
            pending.push(
                submit(&queue, SolveRequest::new(tiny_problem(), i))
                    .unwrap_or_else(|r| panic!("request {i} should be admitted, got {r}")),
            );
        }
        match submit(&queue, SolveRequest::new(tiny_problem(), 99)) {
            Err(Reject::QueueFull { depth }) => assert_eq!(depth, 3),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(queue.depth(), 3);
        let m = queue.work.metrics().snapshot();
        assert_eq!(m.rejected_queue_full, 1);
        assert_eq!(m.queue_depth, 3);

        // Draining the backlog: every admitted request still gets answered.
        queue.spawn_workers().unwrap();
        queue.shutdown();
        for rx in pending {
            let response = rx.recv().expect("drained job answers").unwrap();
            assert_eq!(response.cost, 2.0);
        }
    }

    #[test]
    fn shutdown_rejects_new_work_and_drains_admitted_work() {
        let queue = SolveQueue::start(
            engine(),
            QueueConfig {
                workers: 2,
                ..QueueConfig::default()
            },
        )
        .unwrap();
        let rx =
            submit(&queue, SolveRequest::new(tiny_problem(), 1)).expect("admitted before shutdown");
        queue.shutdown();
        let response = rx.recv().expect("in-flight job is drained").unwrap();
        assert_eq!(response.cost, 2.0);
        match submit(&queue, SolveRequest::new(tiny_problem(), 2)) {
            Err(Reject::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        let m = queue.work.metrics().snapshot();
        assert_eq!(m.rejected_shutdown, 1);
        assert_eq!(m.solved_total, 1);
    }

    #[test]
    fn expired_deadlines_reject_instead_of_solving() {
        let queue = SolveQueue::new(engine(), QueueConfig::default());
        let mut req = SolveRequest::new(tiny_problem(), 1);
        req.deadline_ms = Some(1);
        let rx = submit(&queue, req).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        queue.spawn_workers().unwrap();
        queue.shutdown();
        match rx.recv().unwrap() {
            Err(Reject::DeadlineExceeded { deadline_ms }) => assert_eq!(deadline_ms, 1),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(queue.work.metrics().snapshot().rejected_deadline, 1);
    }

    #[test]
    fn batches_group_and_answer_every_request() {
        let queue = SolveQueue::new(
            engine(),
            QueueConfig {
                batch_size: 4,
                workers: 1,
                ..QueueConfig::default()
            },
        );
        let receivers: Vec<_> = (0..8)
            .map(|i| {
                let mut req = SolveRequest::new(tiny_problem(), i);
                req.backend = Some(Backend::HillClimbing);
                submit(&queue, req).unwrap()
            })
            .collect();
        queue.spawn_workers().unwrap();
        queue.shutdown();
        for rx in receivers {
            assert_eq!(rx.recv().unwrap().unwrap().cost, 2.0);
        }
        let m = queue.work.metrics().snapshot();
        assert!(
            m.batches_dispatched >= 2,
            "8 jobs at batch size 4 need at least 2 batches, saw {}",
            m.batches_dispatched
        );
        assert_eq!(m.solved_total, 8);
        assert_eq!(m.queue_wait.count, 8);
    }

    fn chaos_engine(chaos: crate::chaos::ChaosConfig) -> Arc<SolveEngine> {
        let mut cfg = EngineConfig::new(ChimeraGraph::new(2, 2));
        cfg.device.num_reads = 20;
        cfg.device.num_gauges = 2;
        cfg.chaos = chaos;
        Arc::new(SolveEngine::new(cfg, Arc::new(Metrics::default())))
    }

    /// Keeps caught-panic backtraces out of the test output; restores the
    /// default hook on drop so other tests are unaffected.
    fn silence_panics() -> impl Drop {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                let _ = std::panic::take_hook();
            }
        }
        std::panic::set_hook(Box::new(|_| {}));
        Restore
    }

    #[test]
    fn panicking_requests_answer_500_and_spare_their_batchmates() {
        let _quiet = silence_panics();
        // Panic rate 0.5: a deterministic subset of seeds 0..16 panics, the
        // rest solve normally — all inside the same worker.
        let chaos = crate::chaos::ChaosConfig {
            seed: 5,
            worker_panic_rate: 0.5,
            ..crate::chaos::ChaosConfig::NONE
        };
        let queue = SolveQueue::new(
            chaos_engine(chaos),
            QueueConfig {
                workers: 1,
                batch_size: 8,
                ..QueueConfig::default()
            },
        );
        let receivers: Vec<_> = (0..16)
            .map(|i| {
                let mut req = SolveRequest::new(tiny_problem(), i);
                req.backend = Some(Backend::HillClimbing);
                (i, submit(&queue, req).unwrap())
            })
            .collect();
        queue.spawn_workers().unwrap();
        queue.shutdown();
        let mut panicked = 0;
        for (seed, rx) in receivers {
            match rx.recv().expect("every admitted request is answered") {
                Ok(r) => {
                    assert!(!chaos.worker_panics(seed), "seed {seed} should panic");
                    assert_eq!(r.cost, 2.0);
                }
                Err(Reject::InternalError { detail }) => {
                    assert!(chaos.worker_panics(seed), "seed {seed} shouldn't panic");
                    assert!(
                        detail.contains(crate::chaos::CHAOS_PANIC_MESSAGE),
                        "{detail}"
                    );
                    panicked += 1;
                }
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        let expected: u64 = (0..16).filter(|&s| chaos.worker_panics(s)).count() as u64;
        assert!(expected > 0 && expected < 16, "0.5 rate splits 16 seeds");
        assert_eq!(panicked, expected);
        let m = queue.work.metrics().snapshot();
        assert_eq!(m.worker_panics_caught, expected);
        assert_eq!(m.rejected_internal, expected);
        assert_eq!(m.solved_total, 16 - expected);
    }
}
