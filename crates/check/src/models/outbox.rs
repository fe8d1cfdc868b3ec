//! Model: the real [`Outbox`] with a state pusher and a progress pusher
//! fanning into one watch stream while the watcher drains it.
//!
//! Invariants asserted over every interleaving:
//! * the stream opens with the `watch`-time snapshot (`Queued`) and
//!   state frames arrive in strictly increasing rank order;
//! * exactly one terminal state is delivered, as the last frame the
//!   watcher needs (the watch entry retires, so nothing pushed after
//!   the terminal leaks into the stream);
//! * progress frames delivered plus frames counted dropped never
//!   exceed the frames pushed (conservation under the droppable cap).

use crate::explore::ModelRun;
use gmm_service::events::{Frame, Outbox, Popped};
use gmm_service::protocol::{JobEvent, ProgressFrame};
use gmm_service::queue::JobState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const JOB: u64 = 1;
const PROGRESS_PUSHED: u64 = 3;

fn state_rank(state: JobState) -> u8 {
    match state {
        JobState::Queued => 0,
        JobState::Running => 1,
        _ => 2,
    }
}

pub fn build() -> ModelRun {
    let dropped = Arc::new(AtomicU64::new(0));
    let outbox = Arc::new(Outbox::new(2, dropped.clone()));
    // Register the watch before the model threads start (the build
    // phase is single-threaded); the snapshot claims the job is queued,
    // so the stream must open with a synthetic `Queued` frame.
    let (watching, unknown) = outbox.watch(&[JOB], true, |_| Some((JobState::Queued, None)));
    assert_eq!(watching, vec![JOB]);
    assert!(unknown.is_empty());

    let seen: Arc<parking_lot::Mutex<Vec<Frame>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));

    let t_state = {
        let outbox = outbox.clone();
        Box::new(move || {
            outbox.push_event(&JobEvent::State {
                job: JOB,
                state: JobState::Running,
                termination: None,
            });
            outbox.push_event(&JobEvent::State {
                job: JOB,
                state: JobState::Done,
                termination: None,
            });
        }) as Box<dyn FnOnce() + Send>
    };
    let t_progress = {
        let outbox = outbox.clone();
        Box::new(move || {
            for nodes in 0..PROGRESS_PUSHED {
                outbox.push_event(&JobEvent::Progress {
                    job: JOB,
                    frame: ProgressFrame::Nodes { nodes },
                });
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let t_watch = {
        let (outbox, seen) = (outbox.clone(), seen.clone());
        Box::new(move || {
            // Generous wall-clock deadline: under the model the wait
            // never sleeps, and a correct stream always delivers the
            // terminal, so the timeout exists only to bound real time
            // if the outbox were broken.
            let deadline = Instant::now() + Duration::from_secs(600);
            loop {
                match outbox.pop(Some(deadline)) {
                    Popped::Frame(frame) => {
                        let terminal = matches!(
                            &frame,
                            Frame::Event(JobEvent::State { state, .. })
                                if state_rank(*state) >= 2
                        );
                        seen.lock().push(frame);
                        if terminal {
                            return;
                        }
                    }
                    Popped::TimedOut => panic!("watch stream lost the terminal state"),
                    Popped::Closed => panic!("outbox closed while a terminal was pending"),
                }
            }
        }) as Box<dyn FnOnce() + Send>
    };

    let check = Box::new(move || {
        let seen = seen.lock();
        let mut state_ranks: Vec<u8> = Vec::new();
        let mut delivered_progress = 0u64;
        for frame in seen.iter() {
            match frame {
                Frame::Event(JobEvent::State { job, state, .. }) => {
                    assert_eq!(*job, JOB);
                    state_ranks.push(state_rank(*state));
                }
                Frame::Event(JobEvent::Progress { job, .. }) => {
                    assert_eq!(*job, JOB);
                    delivered_progress += 1;
                }
                // This model never opts into stats deltas.
                Frame::Event(JobEvent::Stats(_)) => {
                    panic!("stats frame without a stats subscription")
                }
                Frame::Response(line) => panic!("unexpected response frame: {line}"),
            }
        }
        assert_eq!(
            state_ranks.first(),
            Some(&0),
            "stream must open with the Queued snapshot"
        );
        assert!(
            state_ranks.windows(2).all(|w| w[0] < w[1]),
            "state frames regressed: ranks {state_ranks:?}"
        );
        assert_eq!(
            state_ranks.iter().filter(|r| **r >= 2).count(),
            1,
            "exactly one terminal state must be delivered"
        );
        assert_eq!(
            state_ranks.last(),
            Some(&2),
            "terminal must retire the stream"
        );
        let lost = dropped.load(Ordering::Relaxed);
        assert!(
            delivered_progress + lost <= PROGRESS_PUSHED,
            "progress conservation violated: delivered {delivered_progress} + dropped {lost} \
             > pushed {PROGRESS_PUSHED}"
        );
        assert_eq!(outbox.dropped_total(), lost);
    }) as Box<dyn FnOnce()>;

    ModelRun {
        threads: vec![t_state, t_progress, t_watch],
        check,
    }
}
