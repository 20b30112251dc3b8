//! A deterministic overload for the drop tests. On a gateway with one
//! worker, at most two bursts run at once: one a session runs inline,
//! and one the worker popped. [`SlotHold`] is a feature extractor that
//! holds the first two bursts to reach classification, so both slots
//! stay taken while every other flood reads to its end: each of their
//! bursts is then queued, and a one-deep queue must shed. Nothing here
//! depends on how the threads are scheduled.

use ctc_core::defense::{FeatureExtractor, FeatureInput, FeatureVector};
use std::io::Read;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a held burst waits before the test gives up.
const PATIENCE: Duration = Duration::from_secs(60);

#[derive(Debug, Default)]
struct HoldState {
    /// Bursts held so far (at most two).
    held: usize,
    /// Floods whose reader has reached its end.
    ended: usize,
}

/// Holds the first two classified bursts until all floods but one have
/// read to their end. The one left out is the flood whose own thread runs
/// a held burst inline: it cannot read on until the hold is released.
#[derive(Debug, Clone)]
pub struct SlotHold {
    state: Arc<(Mutex<HoldState>, Condvar)>,
    release_after: usize,
}

impl SlotHold {
    /// A hold for `floods` flood sessions.
    pub fn new(floods: usize) -> Self {
        SlotHold {
            state: Arc::default(),
            release_after: floods - 1,
        }
    }

    /// A flood's reader: `bytes`, counted as ended once exhausted.
    pub fn flood<'a>(&self, bytes: &'a [u8]) -> Flood<'a> {
        Flood {
            bytes,
            hold: self.clone(),
            ended: false,
        }
    }
}

impl FeatureExtractor for SlotHold {
    fn name(&self) -> &'static str {
        "slot_hold"
    }

    fn feature_names(&self) -> &'static [&'static str] {
        &["slot_hold"]
    }

    fn extract(&self, _: &FeatureInput<'_>, out: &mut FeatureVector) {
        let (lock, released) = &*self.state;
        let mut state = lock.lock().unwrap();
        if state.held < 2 {
            state.held += 1;
            let (state, wait) = released
                .wait_timeout_while(state, PATIENCE, |s| s.ended < self.release_after)
                .unwrap();
            assert!(
                !wait.timed_out(),
                "only {} floods read to their end",
                state.ended
            );
        }
        out.push("slot_hold", 0.0);
    }
}

/// A flood session's source: its bytes, then the end of the stream,
/// which it reports to the [`SlotHold`].
pub struct Flood<'a> {
    bytes: &'a [u8],
    hold: SlotHold,
    ended: bool,
}

impl Read for Flood<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.bytes.read(buf)?;
        if n == 0 && !buf.is_empty() && !self.ended {
            self.ended = true;
            let (lock, released) = &*self.hold.state;
            lock.lock().unwrap().ended += 1;
            released.notify_all();
        }
        Ok(n)
    }
}
