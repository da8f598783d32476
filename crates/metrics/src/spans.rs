//! Per-stage hot-path span timing: recv → decode → engine → encode →
//! send.
//!
//! A worker carries a [`StageClock`] and calls [`StageClock::lap`] at
//! each stage boundary; the lap is one monotonic-clock read and one
//! histogram record. The off-switch, per the "measurement must not
//! perturb what it measures" requirement, is at runtime: pass `None`
//! for the spans and the clock holds no timestamp — `lap` is a branch
//! on a `None`, no `Instant::now()` (the ledger's
//! `metrics.span_lap_disabled_ns`).

use std::sync::Arc;
use std::time::Instant;

use crate::LogHistogram;
use crate::registry::Registry;

/// One stage of the serving hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The `recv_from` call that produced the datagram (includes any
    /// time spent blocked waiting for one; under load this is queue
    /// wait, near zero).
    Recv,
    /// Wire-format decode of the request.
    Decode,
    /// Classification and answer synthesis.
    Engine,
    /// Response encode (including any TC re-encode).
    Encode,
    /// The `send_to` call for the response.
    Send,
}

/// All five stages in hot-path order.
pub const STAGES: [Stage; 5] =
    [Stage::Recv, Stage::Decode, Stage::Engine, Stage::Encode, Stage::Send];

impl Stage {
    /// The `stage` label value used in the registry.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Recv => "recv",
            Stage::Decode => "decode",
            Stage::Engine => "engine",
            Stage::Encode => "encode",
            Stage::Send => "send",
        }
    }
}

/// The five per-stage histograms (nanoseconds), shared across workers.
#[derive(Debug)]
pub struct StageSpans {
    hists: [Arc<LogHistogram>; 5],
}

impl StageSpans {
    /// Registers `dnswild_stage_ns{stage=...}` histograms plus scrape-
    /// time p50/p99 gauges, and returns the recording handle.
    ///
    /// The unlabelled series are the UDP hot path (the original PR-5
    /// shape, kept label-stable for existing dashboards); other
    /// transports register their own series via
    /// [`StageSpans::register_labelled`].
    pub fn register(registry: &Arc<Registry>) -> Arc<StageSpans> {
        StageSpans::register_labelled(registry, &[])
    }

    /// Like [`StageSpans::register`] but with extra labels on every
    /// series — e.g. `[("transport", "tcp")]` gives the TCP plane its
    /// own `dnswild_stage_ns{stage=...,transport="tcp"}` histograms.
    /// Registration is idempotent per label set (the registry dedupes
    /// by `(name, labels)`).
    pub fn register_labelled(
        registry: &Arc<Registry>,
        extra: &[(&str, &str)],
    ) -> Arc<StageSpans> {
        let with_stage = |s: Stage| {
            let mut labels = vec![("stage", s.name())];
            labels.extend_from_slice(extra);
            labels
        };
        let hists = STAGES.map(|s| {
            registry.histogram_with(
                "dnswild_stage_ns",
                "per-stage serving hot path time, nanoseconds",
                &with_stage(s),
            )
        });
        let spans = Arc::new(StageSpans { hists });
        for (p, name) in [(50.0, "dnswild_stage_p50_ns"), (99.0, "dnswild_stage_p99_ns")] {
            let gauges = STAGES.map(|s| {
                registry.gauge_with(
                    name,
                    "per-stage latency percentile, nanoseconds (refreshed on scrape)",
                    &with_stage(s),
                )
            });
            let spans = Arc::clone(&spans);
            registry.on_scrape(move || {
                for (i, g) in gauges.iter().enumerate() {
                    g.set(spans.hists[i].value_at(p).unwrap_or(0) as f64);
                }
            });
        }
        spans
    }

    /// Records one stage duration in nanoseconds.
    #[inline]
    pub fn record(&self, stage: Stage, ns: u64) {
        self.hists[stage as usize].record(ns);
    }

    /// The histogram backing one stage.
    pub fn histogram(&self, stage: Stage) -> &LogHistogram {
        &self.hists[stage as usize]
    }
}

/// A per-worker lap timer over the stage boundaries.
#[derive(Debug, Clone, Copy)]
pub struct StageClock {
    last: Option<Instant>,
}

impl StageClock {
    /// A clock that will time laps iff `enabled` (pass the spans'
    /// presence); when disabled no clock is ever read.
    #[inline]
    pub fn start(enabled: bool) -> StageClock {
        StageClock { last: enabled.then(Instant::now) }
    }

    /// Records the time since the previous lap (or since `start`) into
    /// `stage`, and restarts the lap timer. No-op when the clock is
    /// disabled or `spans` is `None`.
    #[inline]
    pub fn lap(&mut self, spans: Option<&StageSpans>, stage: Stage) {
        if let (Some(last), Some(spans)) = (self.last, spans) {
            let now = Instant::now();
            spans.record(stage, now.duration_since(last).as_nanos() as u64);
            self.last = Some(now);
        }
    }

    /// Like [`StageClock::lap`], but for a stage boundary that covered
    /// `n` packets at once (the batched serving loop crosses recv and
    /// send once per *batch*): records the amortised per-packet time —
    /// elapsed divided by `n` — as one sample, so the stage histograms
    /// keep per-packet semantics whatever the batch size. `n == 0`
    /// restarts the lap without recording.
    #[inline]
    pub fn lap_amortised(&mut self, spans: Option<&StageSpans>, stage: Stage, n: u64) {
        if let (Some(last), Some(spans)) = (self.last, spans) {
            let now = Instant::now();
            if let Some(per_packet) = (now.duration_since(last).as_nanos() as u64).checked_div(n) {
                spans.record(stage, per_packet);
            }
            self.last = Some(now);
        }
    }

    /// Restarts the lap timer without recording. The worker loop resets
    /// on entering each `recv_from` so a stretch of empty read timeouts
    /// never accumulates into the next packet's `recv` span.
    #[inline]
    pub fn reset(&mut self) {
        if self.last.is_some() {
            self.last = Some(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_land_in_the_right_stage_histograms() {
        let reg = Arc::new(Registry::new());
        let spans = StageSpans::register(&reg);
        let mut clock = StageClock::start(true);
        for stage in STAGES {
            clock.lap(Some(&spans), stage);
        }
        for stage in STAGES {
            assert_eq!(spans.histogram(stage).count(), 1, "{}", stage.name());
        }
        // Percentile gauges refresh on scrape.
        let text = reg.render();
        assert!(text.contains("dnswild_stage_ns_bucket{stage=\"recv\""));
        assert!(text.contains("dnswild_stage_p50_ns{stage=\"engine\"}"));
    }

    #[test]
    fn labelled_spans_are_their_own_series_and_idempotent() {
        let reg = Arc::new(Registry::new());
        let udp = StageSpans::register(&reg);
        let tcp = StageSpans::register_labelled(&reg, &[("transport", "tcp")]);
        let mut clock = StageClock::start(true);
        clock.lap(Some(&tcp), Stage::Recv);
        assert_eq!(tcp.histogram(Stage::Recv).count(), 1);
        assert_eq!(udp.histogram(Stage::Recv).count(), 0, "series are distinct");
        // Same label set fetches the same underlying histograms.
        let again = StageSpans::register_labelled(&reg, &[("transport", "tcp")]);
        assert_eq!(again.histogram(Stage::Recv).count(), 1);
        let text = reg.render();
        assert!(text.contains("dnswild_stage_ns_bucket{stage=\"recv\",transport=\"tcp\""));
    }

    #[test]
    fn disabled_clock_records_nothing() {
        let reg = Arc::new(Registry::new());
        let spans = StageSpans::register(&reg);
        let mut clock = StageClock::start(false);
        clock.lap(Some(&spans), Stage::Engine);
        assert_eq!(spans.histogram(Stage::Engine).count(), 0);
        let mut clock = StageClock::start(true);
        clock.lap(None, Stage::Engine);
        clock.reset();
        assert_eq!(spans.histogram(Stage::Engine).count(), 0);
    }
}
