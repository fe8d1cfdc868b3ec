//! Bounded, drop-oldest event delivery for protocol-v2 `watch` streams.
//!
//! Every subscriber (a server connection, or a local [`crate::Session`])
//! owns one [`Outbox`]: a single FIFO of [`Frame`]s guarded by a mutex +
//! condvar. The queue's worker threads push events through
//! [`crate::JobQueue`]'s fan-out; a consumer (the connection's writer
//! thread, or the local session itself) pops them. Two delivery classes:
//!
//! * **responses and state frames are never dropped** — there is at most
//!   one response in flight per request, and at most three state
//!   transitions per watched job, so both are bounded by construction;
//! * **progress frames are droppable**: past [`Outbox`]'s cap the oldest
//!   droppable frame is discarded (and counted), so a stalled reader
//!   loses progress detail but can never exert backpressure on a solver
//!   worker — pushes never block and never wait on the consumer.
//!
//! The watched-job set lives in the outbox too, together with the last
//! delivered state rank per job ([`JobState::rank`]: queued < running <
//! terminal). Rank gating makes the stream monotonic: the synthetic
//! snapshot emitted at watch time and a racing live transition can never
//! reorder or duplicate states from the consumer's point of view.
//!
//! [`writer_loop`] is the one consumer a socket needs: the daemon's and
//! the router's connections both drain their outbox through it.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use gmm_api::Termination;

use crate::protocol::JobEvent;
use crate::queue::JobState;

/// One frame queued for a subscriber.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A pre-rendered response line. Server connections route responses
    /// through the outbox so the writer thread emits responses and
    /// events in exactly the order they were produced.
    Response(String),
    /// A server-push event frame.
    Event(JobEvent),
}

/// Outcome of a blocking [`Outbox::pop`].
#[derive(Debug)]
pub enum Popped {
    Frame(Frame),
    /// The deadline passed with no frame available.
    TimedOut,
    /// The outbox was closed and fully drained.
    Closed,
}

/// Per-watched-job delivery state.
struct Watch {
    /// Last delivered state rank.
    rank: u8,
    /// Whether progress frames are wanted (state frames always are).
    progress: bool,
}

struct OutboxState {
    frames: VecDeque<Frame>,
    /// How many of `frames` are droppable (progress events).
    droppable: usize,
    /// Watched jobs still in flight. Terminal delivery removes the
    /// entry, so this map is bounded by concurrently-live jobs — a
    /// connection-lifetime watcher does not accumulate dead entries.
    watched: HashMap<u64, Watch>,
    /// Whether this subscriber opted into queue-level `stats` event
    /// frames (`watch`/`attach` with `stats: true`).
    stats: bool,
    closed: bool,
}

/// A bounded event queue binding one subscriber to the job queue's
/// event fan-out. Create via [`crate::JobQueue::make_outbox`] so drops
/// are counted in the queue's `events_dropped` statistic.
pub struct Outbox {
    state: Mutex<OutboxState>,
    cond: Condvar,
    /// Cap on *droppable* frames held at once.
    cap: usize,
    dropped: Arc<AtomicU64>,
}

impl std::fmt::Debug for Outbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("Outbox")
            .field("frames", &s.frames.len())
            .field("watched", &s.watched.len())
            .field("cap", &self.cap)
            .finish()
    }
}

impl Outbox {
    /// `cap` bounds queued droppable (progress) frames; `dropped` is the
    /// shared counter bumped once per discarded frame.
    pub fn new(cap: usize, dropped: Arc<AtomicU64>) -> Outbox {
        Outbox {
            state: Mutex::with_rank(
                OutboxState {
                    frames: VecDeque::new(),
                    droppable: 0,
                    watched: HashMap::new(),
                    stats: false,
                    closed: false,
                },
                crate::ranks::OUTBOX,
                "outbox",
            ),
            cond: Condvar::new(),
            cap: cap.max(1),
            dropped,
        }
    }

    /// Start watching `jobs`. For each id, `snapshot` reads the job's
    /// current state (`None` for ids never issued); known ids get one
    /// synthetic state frame immediately, so the consumer always
    /// observes the job's present state before any live transition.
    /// Re-watching an already-watched id is a no-op (no duplicate
    /// snapshot); a job that is already terminal gets its terminal
    /// snapshot without occupying a watch entry (nothing further can
    /// ever arrive for it). `progress` selects whether the watcher
    /// wants bridged progress frames or state transitions only.
    /// Returns `(watching, unknown)`.
    ///
    /// The snapshot runs under the outbox lock — that is what closes
    /// the race against live events: a transition that happens after
    /// the snapshot read is pushed behind it, and one that happened
    /// before is rank-gated out.
    pub fn watch(
        &self,
        jobs: &[u64],
        progress: bool,
        snapshot: impl Fn(u64) -> Option<(JobState, Option<Termination>)>,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut s = self.state.lock();
        let mut watching = Vec::with_capacity(jobs.len());
        let mut unknown = Vec::new();
        for &job in jobs {
            if s.watched.contains_key(&job) {
                watching.push(job);
                continue;
            }
            match snapshot(job) {
                Some((state, termination)) => {
                    if !state.is_terminal() {
                        s.watched.insert(
                            job,
                            Watch {
                                rank: state.rank(),
                                progress,
                            },
                        );
                    }
                    s.frames.push_back(Frame::Event(JobEvent::State {
                        job,
                        state,
                        termination,
                    }));
                    watching.push(job);
                }
                None => unknown.push(job),
            }
        }
        drop(s);
        self.cond.notify_all();
        (watching, unknown)
    }

    /// Opt this subscriber in (or out) of queue-level `stats` event
    /// frames. Sticky across `watch`/`attach` calls: once any request on
    /// the connection asked for stats, the stream keeps flowing.
    pub fn set_stats(&self, stats: bool) {
        self.state.lock().stats = stats;
    }

    /// Queue a response line (never dropped).
    pub fn push_response(&self, line: String) {
        let mut s = self.state.lock();
        if s.closed {
            return;
        }
        s.frames.push_back(Frame::Response(line));
        drop(s);
        self.cond.notify_all();
    }

    /// Offer an event from the fan-out. Unwatched jobs are filtered,
    /// state frames are rank-gated, and progress frames past the cap
    /// evict the oldest progress frame. Never blocks on the consumer.
    pub fn push_event(&self, ev: &JobEvent) {
        let mut s = self.state.lock();
        if s.closed {
            return;
        }
        match ev {
            JobEvent::State { job, state, .. } => {
                let Some(watch) = s.watched.get_mut(job) else {
                    return;
                };
                if state.rank() <= watch.rank {
                    return; // stale or duplicate transition
                }
                if state.is_terminal() {
                    // Terminal delivery retires the watch entry: nothing
                    // further can arrive, and the map stays bounded by
                    // in-flight jobs.
                    s.watched.remove(job);
                } else {
                    watch.rank = state.rank();
                }
                s.frames.push_back(Frame::Event(ev.clone()));
            }
            JobEvent::Progress { job, .. } => {
                if !s.watched.get(job).is_some_and(|w| w.progress) {
                    return;
                }
                push_droppable(&mut s, self.cap, &self.dropped, ev);
            }
            JobEvent::Stats(_) => {
                // Queue-level frames bypass the per-job watch map; only
                // subscribers that opted in receive them, under the same
                // drop-oldest pressure valve as progress frames.
                if !s.stats {
                    return;
                }
                push_droppable(&mut s, self.cap, &self.dropped, ev);
            }
        }
        drop(s);
        self.cond.notify_all();
    }

    /// Blocking pop. `deadline: None` waits until a frame arrives or
    /// the outbox closes.
    pub fn pop(&self, deadline: Option<Instant>) -> Popped {
        let mut s = self.state.lock();
        loop {
            if let Some(frame) = s.frames.pop_front() {
                if matches!(&frame, Frame::Event(e) if e.droppable()) {
                    s.droppable -= 1;
                }
                return Popped::Frame(frame);
            }
            if s.closed {
                return Popped::Closed;
            }
            match deadline {
                None => s = self.cond.wait(s),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Popped::TimedOut;
                    }
                    let (guard, _) = self.cond.wait_for(s, d - now);
                    s = guard;
                }
            }
        }
    }

    /// Close the outbox: future pushes are ignored, and `pop` returns
    /// [`Popped::Closed`] once the backlog drains.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cond.notify_all();
    }

    /// Total frames discarded by *all* outboxes sharing this drop
    /// counter (i.e. the owning queue's `events_dropped`).
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The writer half of one connection: drains `outbox` to the socket
/// until the outbox closes or the peer goes away. On a write failure it
/// shuts the socket down both ways so a reader blocked mid-read unblocks
/// too. Frames leave in outbox order, so a connection's responses reach
/// the peer in the order its requests were answered.
pub fn writer_loop(mut stream: TcpStream, outbox: &Outbox) {
    loop {
        match outbox.pop(None) {
            Popped::Frame(frame) => {
                let mut text = match frame {
                    Frame::Response(line) => line,
                    // Rendering an event cannot fail with the in-tree
                    // serde_json, but a panic here would tear down the
                    // writer and wedge the connection; degrade to a
                    // structured error frame instead.
                    Frame::Event(ev) => serde_json::to_string(&ev).unwrap_or_else(|_| {
                        r#"{"ok":false,"message":"internal: event frame failed to render"}"#
                            .to_string()
                    }),
                };
                text.push('\n');
                if stream
                    .write_all(text.as_bytes())
                    .and_then(|_| stream.flush())
                    .is_err()
                {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
            Popped::Closed => return,
            // No deadline is ever passed to this pop.
            Popped::TimedOut => unreachable!("writer pops without a deadline"),
        }
    }
}

/// Append a droppable frame, evicting the oldest droppable one past the
/// cap (counted in the shared drop counter). Caller holds the state lock.
fn push_droppable(s: &mut OutboxState, cap: usize, dropped: &AtomicU64, ev: &JobEvent) {
    if s.droppable >= cap {
        let oldest = s
            .frames
            .iter()
            .position(|f| matches!(f, Frame::Event(e) if e.droppable()))
            .expect("droppable count > 0 implies a droppable frame");
        s.frames.remove(oldest);
        s.droppable -= 1;
        dropped.fetch_add(1, Ordering::Relaxed);
    }
    s.droppable += 1;
    s.frames.push_back(Frame::Event(ev.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProgressFrame;

    fn state_ev(job: u64, state: JobState) -> JobEvent {
        JobEvent::State {
            job,
            state,
            termination: None,
        }
    }

    fn progress_ev(job: u64, nodes: u64) -> JobEvent {
        JobEvent::Progress {
            job,
            frame: ProgressFrame::Nodes { nodes },
        }
    }

    fn drain(outbox: &Outbox) -> Vec<Frame> {
        let mut out = Vec::new();
        let deadline = Instant::now();
        loop {
            match outbox.pop(Some(deadline)) {
                Popped::Frame(f) => out.push(f),
                _ => return out,
            }
        }
    }

    #[test]
    fn watch_snapshots_then_streams_in_rank_order() {
        let outbox = Outbox::new(16, Arc::new(AtomicU64::new(0)));
        let (watching, unknown) = outbox.watch(&[1, 99], true, |id| {
            (id == 1).then_some((JobState::Queued, None))
        });
        assert_eq!(watching, vec![1]);
        assert_eq!(unknown, vec![99]);

        // A stale re-delivery of the snapshot state is gated out…
        outbox.push_event(&state_ev(1, JobState::Queued));
        // …live transitions advance.
        outbox.push_event(&state_ev(1, JobState::Running));
        outbox.push_event(&state_ev(1, JobState::Running));
        outbox.push_event(&state_ev(1, JobState::Done));
        // Unwatched jobs are filtered entirely.
        outbox.push_event(&state_ev(2, JobState::Running));

        let states: Vec<JobState> = drain(&outbox)
            .into_iter()
            .map(|f| match f {
                Frame::Event(JobEvent::State { state, .. }) => state,
                other => panic!("unexpected frame {other:?}"),
            })
            .collect();
        assert_eq!(
            states,
            vec![JobState::Queued, JobState::Running, JobState::Done]
        );
    }

    #[test]
    fn progress_overflow_drops_oldest_and_counts() {
        let dropped = Arc::new(AtomicU64::new(0));
        let outbox = Outbox::new(2, dropped.clone());
        outbox.watch(&[7], true, |_| Some((JobState::Running, None)));
        for nodes in 1..=5 {
            outbox.push_event(&progress_ev(7, nodes));
        }
        assert_eq!(dropped.load(Ordering::Relaxed), 3, "oldest three dropped");

        let mut nodes_seen = Vec::new();
        for f in drain(&outbox) {
            match f {
                Frame::Event(JobEvent::State { .. }) => {}
                Frame::Event(JobEvent::Progress {
                    frame: ProgressFrame::Nodes { nodes },
                    ..
                }) => nodes_seen.push(nodes),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(nodes_seen, vec![4, 5], "newest frames survive");
    }

    #[test]
    fn state_frames_survive_progress_pressure() {
        let outbox = Outbox::new(1, Arc::new(AtomicU64::new(0)));
        outbox.watch(&[3], true, |_| Some((JobState::Running, None)));
        outbox.push_event(&progress_ev(3, 64));
        outbox.push_event(&state_ev(3, JobState::Done));
        // Overflowing progress drops progress, never the state frame.
        outbox.push_event(&progress_ev(3, 128));
        let kinds: Vec<bool> = drain(&outbox)
            .iter()
            .map(|f| matches!(f, Frame::Event(e) if e.droppable()))
            .collect();
        // snapshot(state) + done(state) survive; one progress remains.
        assert_eq!(kinds.iter().filter(|d| !**d).count(), 2);
        assert!(kinds.iter().filter(|d| **d).count() <= 1);
    }

    #[test]
    fn terminal_delivery_retires_the_watch_entry() {
        let outbox = Outbox::new(16, Arc::new(AtomicU64::new(0)));
        outbox.watch(&[1], true, |_| Some((JobState::Queued, None)));
        outbox.push_event(&state_ev(1, JobState::Done));
        // Retired: later frames for the job are filtered outright…
        outbox.push_event(&progress_ev(1, 64));
        outbox.push_event(&state_ev(1, JobState::Done));
        assert_eq!(
            drain(&outbox).len(),
            2,
            "snapshot + one terminal frame only"
        );
        // …and a re-watch yields a fresh terminal snapshot without
        // re-occupying a watch entry (the map stays bounded by live jobs).
        outbox.watch(&[1], true, |_| Some((JobState::Done, None)));
        assert_eq!(drain(&outbox).len(), 1);
        assert_eq!(outbox.state.lock().watched.len(), 0);
    }

    #[test]
    fn progress_opt_out_filters_progress_but_not_states() {
        let dropped = Arc::new(AtomicU64::new(0));
        let outbox = Outbox::new(16, dropped.clone());
        outbox.watch(&[5], false, |_| Some((JobState::Queued, None)));
        outbox.push_event(&progress_ev(5, 64));
        outbox.push_event(&state_ev(5, JobState::Running));
        outbox.push_event(&progress_ev(5, 128));
        outbox.push_event(&state_ev(5, JobState::Done));
        let frames = drain(&outbox);
        assert_eq!(frames.len(), 3, "snapshot + running + done, no progress");
        assert!(frames
            .iter()
            .all(|f| matches!(f, Frame::Event(e) if !e.droppable())));
        assert_eq!(dropped.load(Ordering::Relaxed), 0, "filtered, not dropped");
    }

    #[test]
    fn stats_frames_are_opt_in_and_droppable() {
        use crate::protocol::StatsDelta;
        let dropped = Arc::new(AtomicU64::new(0));
        let outbox = Outbox::new(2, dropped.clone());
        let stats_ev = JobEvent::Stats(StatsDelta::default());
        // Not opted in: filtered outright, not counted as a drop.
        outbox.push_event(&stats_ev);
        assert!(drain(&outbox).is_empty());
        assert_eq!(dropped.load(Ordering::Relaxed), 0);
        // Opted in: delivered, and drop-oldest past the cap like
        // progress frames — a slow dashboard cannot stall a worker.
        outbox.set_stats(true);
        for _ in 0..5 {
            outbox.push_event(&stats_ev);
        }
        assert_eq!(drain(&outbox).len(), 2);
        assert_eq!(dropped.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn closed_outbox_drains_then_reports_closed() {
        let outbox = Outbox::new(4, Arc::new(AtomicU64::new(0)));
        outbox.push_response("{\"ok\":true}".into());
        outbox.close();
        outbox.push_response("ignored after close".into());
        match outbox.pop(None) {
            Popped::Frame(Frame::Response(line)) => assert!(line.contains("ok")),
            other => panic!("expected the backlog first, got {other:?}"),
        }
        assert!(matches!(outbox.pop(None), Popped::Closed));
    }
}
