//! Per-query journey reconstruction and tail attribution.
//!
//! The paper's §4–§5 claims are about *individual* query fates — which
//! authoritative a recursive picked, how many retries it burned, why a
//! tail query took three RTTs — but histograms can't answer those
//! questions. This module stitches a telemetry trace back into causal
//! per-query timelines using the journey id every hop stamps
//! (`dnswild_telemetry::journey_id`, a seed-deterministic hash of the
//! canonical qname), then classifies each journey into a **tail
//! taxonomy** and renders the attribution table behind
//! `dnswild report --tails` and the timelines behind `dnswild explain`.
//!
//! Two properties are load-bearing for the CI gates:
//!
//! * **Books balance.** Every trace event lands in exactly one journey
//!   (journey id 0 — "could not derive" — goes to the unattributed
//!   bucket), and hop order within a journey is monotone in trace
//!   order. [`JourneyBook::check_books`] verifies both.
//! * **Determinism.** Journey ids are pure functions of the qname, and
//!   the taxonomy reads only flags/rcodes, which are seed-deterministic
//!   in the chaos gates. Everything rendered on a `tails-` line is
//!   byte-identical across same-seed runs; latency figures live on
//!   `tail-latency-`/`tail-mass` lines that the determinism diff skips.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dnswild_telemetry::{
    Event, EventKind, Trace, FLAG_ATTACK, FLAG_CHAOS_CORRUPT, FLAG_CHAOS_DELAY, FLAG_CHAOS_DROP,
    FLAG_CHAOS_DUP, FLAG_CHAOS_REORDER, FLAG_CHAOS_TRUNCATE, FLAG_DECODE_ERROR, FLAG_PREFETCH,
    FLAG_RESPONSE, FLAG_RRL, FLAG_SEND_FAILED, FLAG_TCP, FLAG_TCP_RETRY, FLAG_TC_SEEN,
    FLAG_TIMEOUT, RCODE_NONE,
};

use crate::stats::percentile;

/// Why a query's latency ended up where it did. Ordered by attribution
/// precedence: when a journey touches several causes, the first one in
/// this order becomes its exclusive label (a SERVFAIL that also
/// detoured over TCP *is* a SERVFAIL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TailCause {
    /// No attempt produced a usable answer and nothing stale papered
    /// over it: the stub saw SERVFAIL.
    Servfail,
    /// Answered from an expired cache entry under RFC 8767 serve-stale.
    CacheStale,
    /// Response-rate limiting acted on at least one server hop (slipped
    /// TC=1 or suppressed outright).
    RrlSlipped,
    /// The answer was truncated on UDP and the transaction detoured
    /// over TCP (RFC 7766).
    TcTcpDetour,
    /// The chaos plane dropped, corrupted, or truncated a datagram on
    /// this journey's path.
    ChaosFaulted,
    /// More than one client attempt was needed (timeout or doomed reply
    /// followed by a retry).
    Retried,
    /// One attempt, one answer — the fast path.
    Clean,
}

impl TailCause {
    /// Every cause, in attribution-precedence order ([`TailCause::Clean`]
    /// last — it is the "none of the above" bucket).
    pub const ALL: [TailCause; 7] = [
        TailCause::Servfail,
        TailCause::CacheStale,
        TailCause::RrlSlipped,
        TailCause::TcTcpDetour,
        TailCause::ChaosFaulted,
        TailCause::Retried,
        TailCause::Clean,
    ];

    /// Stable kebab-case label used in report lines and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            TailCause::Servfail => "servfail",
            TailCause::CacheStale => "cache-stale",
            TailCause::RrlSlipped => "rrl-slipped",
            TailCause::TcTcpDetour => "tc-tcp-detour",
            TailCause::ChaosFaulted => "chaos-faulted",
            TailCause::Retried => "retried",
            TailCause::Clean => "clean",
        }
    }
}

/// One query's reconstructed path: every event stamped with its journey
/// id, in trace (drain) order.
#[derive(Debug, Clone)]
pub struct Journey {
    /// The 64-bit journey id (never 0 — those are unattributed).
    pub id: u64,
    /// The hops, in trace order.
    pub hops: Vec<Event>,
    /// Position of each hop in the source trace's event vector —
    /// the monotonicity witness for [`JourneyBook::check_books`].
    pub indices: Vec<usize>,
}

impl Journey {
    fn client_attempts(&self) -> impl Iterator<Item = &Event> {
        self.hops.iter().filter(|e| {
            e.kind == EventKind::ClientQuery && e.flags & (FLAG_PREFETCH | FLAG_ATTACK) == 0
        })
    }

    /// True when some client attempt carried a real answer (a response
    /// with a wire rcode; a "doomed" attempt records `FLAG_RESPONSE`
    /// with [`RCODE_NONE`] and does not count).
    pub fn answered(&self) -> bool {
        self.client_attempts()
            .any(|e| e.flags & FLAG_RESPONSE != 0 && e.rcode != RCODE_NONE)
    }

    /// Worst client-attempt latency on this journey, if it has a
    /// client-side view at all. Timed-out attempts count with their
    /// full window — that *is* the latency the stub experienced.
    pub fn worst_rtt_ns(&self) -> Option<u64> {
        self.client_attempts().map(|e| u64::from(e.latency_ns)).max()
    }

    /// True when some client attempt timed out — `explain --failed`'s
    /// selection.
    pub fn failed(&self) -> bool {
        self.client_attempts().any(|e| e.flags & FLAG_TIMEOUT != 0)
    }

    /// Does this journey touch `cause`, ignoring precedence? The
    /// `tails-` table reports these beside the exclusive counts because
    /// precedence deliberately hides overlap (under a small EDNS limit
    /// every answer detours over TCP, which would otherwise zero the
    /// lower causes).
    pub fn touches(&self, cause: TailCause) -> bool {
        match cause {
            TailCause::Servfail => {
                self.client_attempts().next().is_some()
                    && !self.answered()
                    && !self.touches(TailCause::CacheStale)
            }
            TailCause::CacheStale => self
                .hops
                .iter()
                .any(|e| e.kind == EventKind::CacheLookup && e.flags & FLAG_TIMEOUT != 0),
            TailCause::RrlSlipped => self
                .hops
                .iter()
                .any(|e| e.kind == EventKind::ServerQuery && e.flags & FLAG_RRL != 0),
            TailCause::TcTcpDetour => self
                .hops
                .iter()
                .any(|e| e.flags & (FLAG_TC_SEEN | FLAG_TCP_RETRY | FLAG_TCP) != 0),
            TailCause::ChaosFaulted => self.hops.iter().any(|e| {
                matches!(e.kind, EventKind::ChaosForward | EventKind::ChaosReverse)
                    && e.flags & (FLAG_CHAOS_DROP | FLAG_CHAOS_CORRUPT | FLAG_CHAOS_TRUNCATE) != 0
            }),
            TailCause::Retried => {
                let (mut answered, mut unanswered) = (0u64, 0u64);
                for e in self.client_attempts() {
                    if e.flags & FLAG_RESPONSE != 0 && e.rcode != RCODE_NONE {
                        answered += 1;
                    } else {
                        unanswered += 1;
                    }
                }
                // An answered txn with at least one burned attempt, or
                // a txn that burned several attempts before giving up.
                (answered >= 1 && unanswered >= 1) || unanswered >= 2
            }
            TailCause::Clean => TailCause::ALL[..6].iter().all(|&c| !self.touches(c)),
        }
    }

    /// The journey's exclusive label: the highest-precedence cause it
    /// touches, [`TailCause::Clean`] when none.
    pub fn cause(&self) -> TailCause {
        TailCause::ALL
            .into_iter()
            .find(|&c| c != TailCause::Clean && self.touches(c))
            .unwrap_or(TailCause::Clean)
    }
}

/// Every journey in a trace, plus the events no journey could claim.
#[derive(Debug, Clone)]
pub struct JourneyBook {
    /// Journeys in ascending id order (the ids are hashes, so this is a
    /// deterministic but otherwise meaningless order).
    pub journeys: Vec<Journey>,
    /// Events with journey id 0: corrupted-beyond-parsing payloads.
    pub unattributed: Vec<Event>,
    /// Total events in the source trace — the balance the books must
    /// close against.
    pub total_events: usize,
}

/// Groups a trace's events into journeys by their stamped journey id.
/// Hop order within a journey is trace order, so two reads of one file
/// reconstruct identical books.
pub fn reconstruct(trace: &Trace) -> JourneyBook {
    let mut map: BTreeMap<u64, Journey> = BTreeMap::new();
    let mut unattributed = Vec::new();
    for (i, ev) in trace.events.iter().enumerate() {
        if ev.journey == 0 {
            unattributed.push(*ev);
            continue;
        }
        let j = map
            .entry(ev.journey)
            .or_insert_with(|| Journey { id: ev.journey, hops: Vec::new(), indices: Vec::new() });
        j.hops.push(*ev);
        j.indices.push(i);
    }
    JourneyBook { journeys: map.into_values().collect(), unattributed, total_events: trace.events.len() }
}

impl JourneyBook {
    /// The journey with the given id, if the trace saw it.
    pub fn get(&self, id: u64) -> Option<&Journey> {
        self.journeys.binary_search_by_key(&id, |j| j.id).ok().map(|i| &self.journeys[i])
    }

    /// The `n` slowest journeys by worst client RTT, worst first
    /// (id-ascending among ties). Journeys with no client view rank
    /// last.
    pub fn slowest(&self, n: usize) -> Vec<&Journey> {
        let mut all: Vec<&Journey> = self.journeys.iter().collect();
        all.sort_by_key(|j| (std::cmp::Reverse(j.worst_rtt_ns().unwrap_or(0)), j.id));
        all.truncate(n);
        all
    }

    /// Every journey containing a timed-out client attempt, id order.
    pub fn failed(&self) -> Vec<&Journey> {
        self.journeys.iter().filter(|j| j.failed()).collect()
    }

    /// Verifies the reconstruction invariants: every event in exactly
    /// one journey (or the unattributed bucket), hop ids homogeneous,
    /// and hop positions strictly monotone in trace order.
    pub fn check_books(&self) -> Result<(), String> {
        let attributed: usize = self.journeys.iter().map(|j| j.hops.len()).sum();
        if attributed + self.unattributed.len() != self.total_events {
            return Err(format!(
                "journey books: {} attributed + {} unattributed != {} events",
                attributed,
                self.unattributed.len(),
                self.total_events
            ));
        }
        let mut prev_id = 0u64;
        for j in &self.journeys {
            if j.id == 0 {
                return Err("journey books: id 0 escaped the unattributed bucket".into());
            }
            if j.id <= prev_id {
                return Err(format!("journey books: id {:016x} out of order", j.id));
            }
            prev_id = j.id;
            if j.hops.len() != j.indices.len() || j.hops.is_empty() {
                return Err(format!("journey books: {:016x} hop/index mismatch", j.id));
            }
            if j.hops.iter().any(|e| e.journey != j.id) {
                return Err(format!("journey books: foreign hop under {:016x}", j.id));
            }
            if j.indices.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "journey books: hops of {:016x} not monotone in trace order",
                    j.id
                ));
            }
        }
        if self.unattributed.iter().any(|e| e.journey != 0) {
            return Err("journey books: attributed event in the unattributed bucket".into());
        }
        Ok(())
    }
}

/// One row of the tail-attribution table.
#[derive(Debug, Clone)]
pub struct TailRow {
    /// The cause this row accounts.
    pub cause: TailCause,
    /// Journeys whose *exclusive* label this is (precedence applied).
    pub exclusive: u64,
    /// Journeys that touch this cause at all (overlap allowed).
    pub touched: u64,
    /// Worst client RTTs of the exclusively-labelled journeys, ns.
    pub latencies_ns: Vec<u64>,
}

/// The `report --tails` attribution table.
#[derive(Debug, Clone)]
pub struct TailReport {
    /// One row per cause, in precedence order.
    pub rows: Vec<TailRow>,
    /// Total journeys classified.
    pub journeys: u64,
    /// Events that belonged to no journey.
    pub unattributed_events: u64,
}

/// Classifies every journey in the book and aggregates the table.
pub fn tail_report(book: &JourneyBook) -> TailReport {
    let mut rows: Vec<TailRow> = TailCause::ALL
        .into_iter()
        .map(|cause| TailRow { cause, exclusive: 0, touched: 0, latencies_ns: Vec::new() })
        .collect();
    for j in &book.journeys {
        let cause = j.cause();
        for row in rows.iter_mut() {
            let touches =
                if row.cause == TailCause::Clean { cause == TailCause::Clean } else { j.touches(row.cause) };
            if touches {
                row.touched += 1;
            }
            if row.cause == cause {
                row.exclusive += 1;
                if let Some(rtt) = j.worst_rtt_ns() {
                    row.latencies_ns.push(rtt);
                }
            }
        }
    }
    TailReport {
        rows,
        journeys: book.journeys.len() as u64,
        unattributed_events: book.unattributed.len() as u64,
    }
}

impl TailReport {
    /// The seed-deterministic half of the table: journey counts and
    /// shares per cause. Every line starts with `tails-`; the verify
    /// gate diffs exactly these lines across same-seed runs.
    pub fn render_deterministic(&self) -> String {
        let mut out = format!(
            "tails-total: journeys={} unattributed-events={}\n",
            self.journeys, self.unattributed_events
        );
        for row in &self.rows {
            let share =
                if self.journeys == 0 { 0.0 } else { row.exclusive as f64 / self.journeys as f64 };
            let _ = writeln!(
                out,
                "tails-{}: journeys={} touched={} share={:.4}",
                row.cause.label(),
                row.exclusive,
                row.touched,
                share
            );
        }
        out
    }

    /// The timing half: per-cause latency percentiles and the share of
    /// tail mass (journeys at or above the overall p90) each cause
    /// claims. Latencies are wall-clock, so these lines are *not*
    /// diffed across runs — hence the distinct `tail-latency-` /
    /// `tail-mass` prefixes.
    pub fn render_latencies(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let us: Vec<f64> = row.latencies_ns.iter().map(|&n| n as f64 / 1e3).collect();
            match (percentile(&us, 50.0), percentile(&us, 99.0), percentile(&us, 99.9)) {
                (Some(p50), Some(p99), Some(p999)) => {
                    let _ = writeln!(
                        out,
                        "tail-latency-{}: n={} p50_us={:.1} p99_us={:.1} p999_us={:.1}",
                        row.cause.label(),
                        us.len(),
                        p50,
                        p99,
                        p999
                    );
                }
                _ => {
                    let _ = writeln!(out, "tail-latency-{}: n=0", row.cause.label());
                }
            }
        }
        let all_us: Vec<f64> = self
            .rows
            .iter()
            .flat_map(|r| r.latencies_ns.iter().map(|&n| n as f64 / 1e3))
            .collect();
        if let Some(p90) = percentile(&all_us, 90.0) {
            let tail_total: usize = self
                .rows
                .iter()
                .map(|r| r.latencies_ns.iter().filter(|&&n| n as f64 / 1e3 >= p90).count())
                .sum();
            let _ = writeln!(out, "tail-mass: p90_us={:.1} tail-journeys={}", p90, tail_total);
            for row in &self.rows {
                let in_tail =
                    row.latencies_ns.iter().filter(|&&n| n as f64 / 1e3 >= p90).count();
                let share =
                    if tail_total == 0 { 0.0 } else { in_tail as f64 / tail_total as f64 };
                let _ = writeln!(out, "tail-mass-{}: share={:.4}", row.cause.label(), share);
            }
        }
        out
    }

    /// Both halves, counts first.
    pub fn render(&self) -> String {
        format!("{}{}", self.render_deterministic(), self.render_latencies())
    }
}

/// Short human name for every flag bit, hot-path order.
const FLAG_NAMES: [(u16, &str); 16] = [
    (FLAG_RESPONSE, "resp"),
    (FLAG_DECODE_ERROR, "decode-err"),
    (FLAG_TIMEOUT, "timeout"),
    (FLAG_TCP, "tcp"),
    (FLAG_CHAOS_DROP, "drop"),
    (FLAG_CHAOS_DUP, "dup"),
    (FLAG_CHAOS_CORRUPT, "corrupt"),
    (FLAG_CHAOS_TRUNCATE, "truncate"),
    (FLAG_CHAOS_REORDER, "reorder"),
    (FLAG_CHAOS_DELAY, "delay"),
    (FLAG_SEND_FAILED, "send-fail"),
    (FLAG_TC_SEEN, "tc"),
    (FLAG_TCP_RETRY, "tcp-retry"),
    (FLAG_ATTACK, "attack"),
    (FLAG_RRL, "rrl"),
    (FLAG_PREFETCH, "prefetch"),
];

/// Renders a flag word as `resp+tc+tcp` (or `-` when no bit is set).
pub fn flag_names(flags: u16) -> String {
    let names: Vec<&str> =
        FLAG_NAMES.iter().filter(|(bit, _)| flags & bit != 0).map(|&(_, n)| n).collect();
    if names.is_empty() { "-".to_string() } else { names.join("+") }
}

/// Causal stage rank of an event kind along a query's path: cache
/// lookup, then the forward chaos leg, the server, the reverse leg, and
/// finally the client-side completion. Used to order canonical
/// timelines without timestamps.
fn stage_rank(kind: EventKind) -> u8 {
    match kind {
        EventKind::CacheLookup => 0,
        EventKind::ChaosForward => 1,
        EventKind::ServerQuery | EventKind::ServerBad => 2,
        EventKind::ChaosReverse => 3,
        EventKind::ClientQuery => 5,
        EventKind::Unknown(_) => 6,
    }
}

/// The deterministic content tuple canonical timelines sort hops by:
/// attempt id first (the resolver's ids are attempt-ordinal), then
/// causal stage, then the remaining seed-deterministic content fields.
fn content_tuple(e: &Event) -> (u16, u8, u8, u16, u8, u16, u16, u16) {
    (e.dns_id, stage_rank(e.kind), e.kind.to_u8(), e.flags, e.rcode, e.bytes_in, e.bytes_out, e.auth_id)
}

fn rcode_label(rcode: u8) -> String {
    if rcode == RCODE_NONE { "-".to_string() } else { rcode.to_string() }
}

/// Renders one journey as a human-readable timeline.
///
/// In the default mode hops are ordered by capture timestamp and each
/// line carries the delta to the journey's first hop plus the hop's own
/// latency — the "why was this query slow" view. In `canonical` mode
/// timestamps and latencies are omitted and hops are ordered by their
/// deterministic content tuple instead, so two same-seed runs render
/// byte-identical timelines (the determinism gate's diff target).
pub fn render_timeline(trace: &Trace, journey: &Journey, canonical: bool) -> String {
    let mut hops: Vec<&Event> = journey.hops.iter().collect();
    if canonical {
        hops.sort_by_key(|e| content_tuple(e));
    } else {
        hops.sort_by_key(|e| (e.ts_ns, content_tuple(e)));
    }
    let mut out = format!(
        "journey {:016x}  cause={} hops={}",
        journey.id,
        journey.cause().label(),
        hops.len()
    );
    if !canonical {
        if let Some(worst) = journey.worst_rtt_ns() {
            let _ = write!(out, " worst_rtt_us={:.1}", worst as f64 / 1e3);
        }
    }
    out.push('\n');
    let base = hops.first().map(|e| e.ts_ns).unwrap_or(0);
    for e in hops {
        if canonical {
            let _ = writeln!(
                out,
                "  {:<12} id={:04x} auth={} flags={} rcode={} in={}B out={}B",
                e.kind.label(),
                e.dns_id,
                trace.auth_code(e.auth_id),
                flag_names(e.flags),
                rcode_label(e.rcode),
                e.bytes_in,
                e.bytes_out
            );
        } else {
            let _ = writeln!(
                out,
                "  +{:>9.3}ms {:<12} id={:04x} auth={} flags={} rcode={} in={}B out={}B lat_us={:.1}",
                (e.ts_ns - base) as f64 / 1e6,
                e.kind.label(),
                e.dns_id,
                trace.auth_code(e.auth_id),
                flag_names(e.flags),
                rcode_label(e.rcode),
                e.bytes_in,
                e.bytes_out,
                f64::from(e.latency_ns) / 1e3
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(journey: u64, kind: EventKind, flags: u16, rcode: u8, ts: u64) -> Event {
        let mut e = Event::new(kind);
        e.journey = journey;
        e.flags = flags;
        e.rcode = rcode;
        e.ts_ns = ts;
        e.latency_ns = (ts / 2) as u32;
        e
    }

    fn trace_of(events: Vec<Event>) -> Trace {
        Trace { version: 2, auths: vec!["FRA".into()], events, overflow: 0 }
    }

    /// journey 1: clean. journey 2: chaos-drop + timeout + answered
    /// retry. journey 3: servfail (all attempts burned). journey 4:
    /// rrl-slipped + tcp detour (detour loses precedence). Plus one
    /// unattributed corrupt datagram.
    fn sample() -> Trace {
        trace_of(vec![
            hop(1, EventKind::ServerQuery, FLAG_RESPONSE, 0, 10),
            hop(1, EventKind::ClientQuery, FLAG_RESPONSE, 0, 20),
            hop(2, EventKind::ChaosForward, FLAG_CHAOS_DROP, RCODE_NONE, 30),
            hop(2, EventKind::ClientQuery, FLAG_TIMEOUT, RCODE_NONE, 40),
            hop(2, EventKind::ServerQuery, FLAG_RESPONSE, 0, 50),
            hop(2, EventKind::ClientQuery, FLAG_RESPONSE, 0, 60),
            hop(3, EventKind::ClientQuery, FLAG_TIMEOUT, RCODE_NONE, 70),
            hop(3, EventKind::ClientQuery, FLAG_TIMEOUT, RCODE_NONE, 80),
            hop(4, EventKind::ServerQuery, FLAG_RRL | FLAG_RESPONSE, 0, 90),
            hop(4, EventKind::ClientQuery, FLAG_RESPONSE | FLAG_TC_SEEN | FLAG_TCP, 0, 100),
            hop(0, EventKind::ServerBad, FLAG_DECODE_ERROR, RCODE_NONE, 110),
        ])
    }

    #[test]
    fn books_balance_and_group_by_id() {
        let book = reconstruct(&sample());
        assert_eq!(book.journeys.len(), 4);
        assert_eq!(book.unattributed.len(), 1);
        book.check_books().expect("books balance");
        assert_eq!(book.get(2).unwrap().hops.len(), 4);
        assert!(book.get(99).is_none());
    }

    #[test]
    fn taxonomy_precedence_and_touches() {
        let book = reconstruct(&sample());
        assert_eq!(book.get(1).unwrap().cause(), TailCause::Clean);
        // Journey 2 touches chaos and retried; chaos wins precedence.
        let j2 = book.get(2).unwrap();
        assert_eq!(j2.cause(), TailCause::ChaosFaulted);
        assert!(j2.touches(TailCause::Retried));
        assert!(j2.failed(), "it burned a timeout");
        assert!(j2.answered(), "but the retry landed");
        let j3 = book.get(3).unwrap();
        assert_eq!(j3.cause(), TailCause::Servfail);
        assert!(j3.touches(TailCause::Retried));
        // RRL beats the TCP detour it caused.
        let j4 = book.get(4).unwrap();
        assert_eq!(j4.cause(), TailCause::RrlSlipped);
        assert!(j4.touches(TailCause::TcTcpDetour));
    }

    #[test]
    fn doomed_reply_is_not_an_answer() {
        // FLAG_RESPONSE with RCODE_NONE is a doomed classification
        // (REFUSED upstream), not an answer: alone it is a SERVFAIL.
        let t = trace_of(vec![hop(7, EventKind::ClientQuery, FLAG_RESPONSE, RCODE_NONE, 10)]);
        let book = reconstruct(&t);
        let j = book.get(7).unwrap();
        assert!(!j.answered());
        assert_eq!(j.cause(), TailCause::Servfail);
    }

    #[test]
    fn stale_serve_trumps_servfail() {
        let t = trace_of(vec![
            hop(8, EventKind::ClientQuery, FLAG_TIMEOUT, RCODE_NONE, 10),
            hop(8, EventKind::CacheLookup, FLAG_TIMEOUT, 0, 20),
        ]);
        let j = reconstruct(&t);
        assert_eq!(j.get(8).unwrap().cause(), TailCause::CacheStale);
        assert!(!j.get(8).unwrap().touches(TailCause::Servfail));
    }

    #[test]
    fn prefetch_and_attack_attempts_do_not_classify() {
        let t = trace_of(vec![
            hop(9, EventKind::ClientQuery, FLAG_PREFETCH | FLAG_TIMEOUT, RCODE_NONE, 10),
            hop(9, EventKind::ClientQuery, FLAG_ATTACK | FLAG_TIMEOUT, RCODE_NONE, 20),
        ]);
        let j = reconstruct(&t);
        let journey = j.get(9).unwrap();
        assert!(!journey.failed(), "prefetch/attack timeouts are not stub failures");
        assert_eq!(journey.cause(), TailCause::Clean);
        assert_eq!(journey.worst_rtt_ns(), None);
    }

    #[test]
    fn tail_report_counts_and_shares() {
        let report = tail_report(&reconstruct(&sample()));
        assert_eq!(report.journeys, 4);
        assert_eq!(report.unattributed_events, 1);
        let row = |c: TailCause| report.rows.iter().find(|r| r.cause == c).unwrap();
        assert_eq!(row(TailCause::Clean).exclusive, 1);
        assert_eq!(row(TailCause::ChaosFaulted).exclusive, 1);
        assert_eq!(row(TailCause::Servfail).exclusive, 1);
        assert_eq!(row(TailCause::RrlSlipped).exclusive, 1);
        assert_eq!(row(TailCause::TcTcpDetour).exclusive, 0, "lost to rrl precedence");
        assert_eq!(row(TailCause::TcTcpDetour).touched, 1, "but the touch is visible");
        assert_eq!(row(TailCause::Retried).touched, 2);
        let text = report.render();
        assert!(text.contains("tails-total: journeys=4 unattributed-events=1"));
        assert!(text.contains("tails-clean: journeys=1 touched=1 share=0.2500"));
        assert!(text.contains("tail-latency-clean: n=1"));
        assert!(text.contains("tail-mass:"));
    }

    #[test]
    fn slowest_and_failed_selection() {
        let book = reconstruct(&sample());
        // latency_ns = ts/2, so journey 4 (ts 100) is the slowest.
        let slowest: Vec<u64> = book.slowest(2).iter().map(|j| j.id).collect();
        assert_eq!(slowest, vec![4, 3]);
        let failed: Vec<u64> = book.failed().iter().map(|j| j.id).collect();
        assert_eq!(failed, vec![2, 3]);
    }

    #[test]
    fn reconstruction_is_order_insensitive_where_it_claims() {
        // Same multiset of events, different drain interleaving: the
        // canonical renders and the deterministic table lines agree.
        let a = sample();
        let mut shuffled = a.clone();
        shuffled.events.reverse();
        let (ba, bb) = (reconstruct(&a), reconstruct(&shuffled));
        bb.check_books().expect("shuffled books balance");
        assert_eq!(
            tail_report(&ba).render_deterministic(),
            tail_report(&bb).render_deterministic()
        );
        for (ja, jb) in ba.journeys.iter().zip(&bb.journeys) {
            assert_eq!(
                render_timeline(&a, ja, true),
                render_timeline(&shuffled, jb, true),
                "canonical timelines must not depend on drain order"
            );
        }
    }

    #[test]
    fn timeline_renders_deltas_and_flags() {
        let t = sample();
        let book = reconstruct(&t);
        let text = render_timeline(&t, book.get(2).unwrap(), false);
        assert!(text.starts_with("journey 0000000000000002  cause=chaos-faulted hops=4"));
        assert!(text.contains("+    0.000ms"), "first hop at delta zero:\n{text}");
        assert!(text.contains("flags=drop"));
        assert!(text.contains("flags=timeout"));
        let canonical = render_timeline(&t, book.get(2).unwrap(), true);
        assert!(!canonical.contains("ms "), "canonical mode carries no timestamps");
        assert!(!canonical.contains("lat_us"));
    }

    #[test]
    fn flag_names_join_and_default() {
        assert_eq!(flag_names(0), "-");
        assert_eq!(flag_names(FLAG_RESPONSE | FLAG_TC_SEEN | FLAG_TCP), "resp+tcp+tc");
    }

    /// Reconstruction books balance on arbitrary traces: every event
    /// lands in exactly one journey (or the unattributed bucket), hops
    /// stay monotone in trace order, and the exclusive tail counts sum
    /// to the journey total.
    #[test]
    fn qc_reconstruction_books_balance() {
        use detrand::qc;
        const KINDS: [EventKind; 6] = [
            EventKind::ServerQuery,
            EventKind::ServerBad,
            EventKind::ClientQuery,
            EventKind::ChaosForward,
            EventKind::ChaosReverse,
            EventKind::CacheLookup,
        ];
        qc::property("analysis/journey-books-balance").cases(512).check(|g| {
            let events = g.vec(0..120, |g| {
                let mut e = Event::new(*g.choose(&KINDS));
                // Small id range forces journeys with many hops; 0 is
                // the unattributed bucket.
                e.journey = g.u64_in(0..12);
                e.flags = g.u16() & 0x0fff;
                e.rcode = if g.bool() { RCODE_NONE } else { g.u8() & 0x0f };
                e.ts_ns = u64::from(g.u32());
                e.latency_ns = g.u32();
                e.dns_id = g.u16();
                e
            });
            let trace =
                Trace { version: 2, auths: vec!["FRA".into()], events, overflow: 0 };
            let book = reconstruct(&trace);
            book.check_books().expect("books must balance on any trace");
            let report = tail_report(&book);
            let exclusive: u64 = report.rows.iter().map(|r| r.exclusive).sum();
            assert_eq!(exclusive, report.journeys, "every journey gets one label");
            assert_eq!(report.unattributed_events as usize, book.unattributed.len());
            // Each journey's cause is one it actually touches.
            for j in &book.journeys {
                let c = j.cause();
                assert!(j.touches(c), "label {c:?} must be a touched cause");
            }
        });
    }
}
