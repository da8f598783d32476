//! The transport-agnostic authoritative answer engine.
//!
//! [`AnswerEngine`] is the part of the server that turns one inbound
//! packet into (at most) one response: decode, opcode/class screening,
//! zone lookup, per-site TXT branding, CHAOS identification, EDNS echo
//! and UDP truncation. It knows nothing about *how* packets arrive —
//! the deterministic simulator actor ([`crate::AuthoritativeServer`])
//! and the real-socket serving plane (`dnswild-netio`) both drive the
//! same engine, so behaviour verified in simulation is the behaviour
//! that runs on the wire.
//!
//! There are two ways in. [`AnswerEngine::handle_packet`] (payload,
//! transport, buffer) is what the simulator actor, the benchmarks and
//! the tests call; [`AnswerEngine::handle_packet_from`] adds the two
//! things only a socket loop has — a client key for rate limiting and
//! stage spans — and is what the UDP and TCP serving loops call. The
//! first is the second with neither.
//!
//! Every proper question is classified exactly once, into a (private)
//! `Outcome`; its [`ServerStats`] counter, the response's rcode and AA
//! bit, and whether response-rate limiting charges it all derive from
//! that one value.
//!
//! Answering allocates nothing beyond decoding the query itself: the
//! zone's [`Lookup`] borrows the RRsets it found, and the engine writes
//! header, question, those records and the OPT echo straight into the
//! caller's reusable buffer through [`MessageWriter`] — the encoder
//! [`dnswild_proto::Message::encode_into`] uses — under a byte ceiling,
//! so an answer over the negotiated UDP limit stops at the first record
//! that does not fit and leaves as the minimal TC=1 reply. (What still
//! allocates: the decoded query's question vector, its qname and its
//! additional-section vector; a CHAOS answer's TXT.)

use std::sync::Arc;
use std::time::Instant;

use dnswild_proto::rdata::Txt;
use dnswild_proto::{
    Class, Edns, Header, Message, MessageWriter, Name, Opcode, ProtoResult, Question, RData, RType,
    Rcode, Section, EXTENDED_RCODE_BADVERS, MAX_NAME_LEN, MIN_EDNS_PAYLOAD,
};
use dnswild_metrics::{Stage, StageClock, StageSpans};
use dnswild_zone::presets::SITE_PLACEHOLDER;
use dnswild_zone::{Lookup, Zone};

use crate::rrl::{
    RateLimitPolicy, RateLimiter, RrlScope, RrlVerdict, SharedRateLimiter, VerdictSpans,
};

dnswild_metrics::counter_set! {
    /// Counters a server keeps about its own traffic. The labels are the
    /// `kind` values of the per-auth `dnswild_server_events_total` series
    /// and the keys of every `stats:` line, so neither can drift from the
    /// struct.
    pub struct ServerStats {
        /// Queries received (decodable messages with QR=0).
        queries => "queries",
        /// Positive answers served.
        answers => "answers",
        /// NXDOMAIN responses.
        nxdomain => "nxdomain",
        /// NODATA responses.
        nodata => "nodata",
        /// Referrals served.
        referrals => "referrals",
        /// REFUSED responses (off-zone queries).
        refused => "refused",
        /// FORMERR responses (undecodable but with a readable header).
        formerr => "formerr",
        /// NOTIMP responses (non-QUERY opcodes).
        notimp => "notimp",
        /// CHAOS identification queries answered.
        chaos => "chaos",
        /// BADVERS responses (RFC 6891: the query asked for an EDNS version
        /// newer than 0, answered with extended RCODE 16).
        badvers => "badvers",
        /// UDP responses truncated because they exceeded the negotiated
        /// payload limit (TC=1 sent instead).
        truncated => "truncated",
        /// Queries served over the TCP-like transport.
        tcp_queries => "tcp_queries",
        /// Datagrams dropped silently (unparseable, or responses).
        dropped => "dropped",
        /// Responses suppressed by response-rate limiting. The query still
        /// counts in `queries` and its outcome counter — RRL happens after
        /// classification, ahead of encode — so `question_outcomes` and
        /// `packets_seen` balance unchanged.
        rrl_dropped => "rrl_dropped",
        /// Rate-limited responses answered as minimal TC=1 replies (the
        /// 1-in-`slip` leak inviting a TCP retry). Not counted in
        /// `truncated`, which tracks size-driven truncation.
        rrl_slipped => "rrl_slipped",
        /// Client token buckets evicted (LRU) to admit new keys.
        bucket_evictions => "bucket_evictions",
    }
}

impl ServerStats {
    /// Sum of the per-outcome response counters for proper questions
    /// (everything [`AnswerEngine::handle_packet`] classifies a question
    /// into). For a run where every sent packet is a well-formed query
    /// this equals [`ServerStats::queries`] — the consistency invariant
    /// the loopback smoke test asserts.
    pub fn question_outcomes(&self) -> u64 {
        self.answers
            + self.nxdomain
            + self.nodata
            + self.referrals
            + self.refused
            + self.chaos
            + self.badvers
    }

    /// Total packets the engine classified: every inbound packet bumps
    /// exactly one of `queries`, `notimp`, `formerr` or `dropped`, so
    /// this equals the number of [`AnswerEngine::handle_packet`] calls.
    /// The chaos smoke gate balances it against the fault layer's
    /// delivered-datagram count. (Unlike
    /// [`ServerStats::question_outcomes`] this also covers packets that
    /// never reached the question stage — corrupted queries, responses,
    /// non-QUERY opcodes.)
    pub fn packets_seen(&self) -> u64 {
        self.queries + self.notimp + self.formerr + self.dropped
    }

    /// Folds any collection of per-thread / per-actor stats into one
    /// aggregate. The single merge code path used by both the
    /// multi-threaded serving plane and multi-server simulations.
    pub fn aggregate<I: IntoIterator<Item = ServerStats>>(parts: I) -> ServerStats {
        parts.into_iter().sum()
    }
}

/// How a site negotiates EDNS(0) payload sizes — the per-site
/// truncation policy the paper's multi-site deployments tune
/// independently (an anycast site behind a lossy path may cap UDP
/// answers well below what clients advertise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationPolicy {
    /// Payload size this site advertises in the OPT record of its own
    /// responses.
    pub advertise: u16,
    /// Ceiling applied to the client's advertised size: a UDP response
    /// may never exceed `min(client_advertised, max_udp)` bytes (both
    /// clamped up to the 512-byte RFC floor) before TC=1 replaces it.
    pub max_udp: u16,
}

impl Default for TruncationPolicy {
    fn default() -> Self {
        TruncationPolicy {
            advertise: dnswild_proto::DEFAULT_EDNS_PAYLOAD,
            max_udp: dnswild_proto::DEFAULT_EDNS_PAYLOAD,
        }
    }
}

impl TruncationPolicy {
    /// A policy advertising and capping at the same `size` — what
    /// `dnswild serve --edns-size` configures.
    pub fn symmetric(size: u16) -> Self {
        TruncationPolicy { advertise: size, max_udp: size }
    }

    /// The UDP byte limit negotiated with a query: 512 without EDNS,
    /// otherwise the client's clamped advertisement capped by this
    /// site's ceiling (never below the RFC floor).
    pub fn udp_limit(&self, edns: Option<&Edns>) -> usize {
        match edns {
            Some(e) => e.payload_limit().min(self.max_udp).max(MIN_EDNS_PAYLOAD) as usize,
            None => MIN_EDNS_PAYLOAD as usize,
        }
    }
}

/// Which kind of transport a packet arrived over. The engine only cares
/// about the semantic difference (UDP answers are subject to the
/// client's advertised payload size; TCP answers are not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Datagram transport: truncate oversized answers with TC=1.
    Udp,
    /// Stream transport: no size limit below the 64 KiB message cap.
    Tcp,
}

/// Which [`ServerStats`] counter a packet landed in — the telemetry
/// plane's event classification, mirroring [`ServerStats::packets_seen`]
/// so trace event counts close against the server's own books.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketClass {
    /// A well-formed QUERY (bumped `queries`).
    Query,
    /// A non-QUERY opcode (bumped `notimp`).
    NotImp,
    /// Undecodable with a readable header (bumped `formerr`).
    FormErr,
    /// Silently dropped (short garbage or a QR=1 packet).
    Dropped,
}

/// What [`AnswerEngine::handle_packet`] did with one inbound packet.
#[derive(Debug)]
pub struct HandledPacket {
    /// Whether a response was written into the caller's buffer.
    pub response: bool,
    /// Whether the packet was a well-formed QUERY carrying a question
    /// (the condition under which the simulator's passive log records
    /// an entry, reading the question back from the payload).
    pub question: bool,
    /// Whether the packet failed [`Message::decode`] (the FORMERR-salvage
    /// and short-garbage paths). The serving plane counts these at the
    /// socket layer so fault storms stay accountable.
    pub decode_error: bool,
    /// Which counter the packet bumped (one per packet, always).
    pub class: PacketClass,
    /// Rcode of the response written, when there was one.
    pub rcode: Option<Rcode>,
    /// Set when response-rate limiting intervened: `Some(Slip)` for a
    /// TC=1 leak, `Some(Drop)` for a suppressed response. `None` for
    /// everything the limiter let through (or never saw).
    pub rrl: Option<RrlVerdict>,
}

impl HandledPacket {
    /// A packet of `class` that drew no response (yet).
    fn new(class: PacketClass) -> Self {
        HandledPacket {
            response: false,
            question: false,
            decode_error: false,
            class,
            rcode: None,
            rrl: None,
        }
    }

    /// Writes a response into the caller's buffer — `header`, the
    /// echoed `questions`, then whatever `body` adds — and records
    /// whether, and with which rcode, it went out. A response that
    /// cannot be written leaves the buffer empty.
    fn reply(
        mut self,
        header: Header,
        questions: &[Question],
        resp_buf: &mut Vec<u8>,
        body: impl FnOnce(&mut MessageWriter) -> ProtoResult<()>,
    ) -> Self {
        let mut w = MessageWriter::new(std::mem::take(resp_buf), &header);
        let written = questions.iter().try_for_each(|q| w.question(q)).and_then(|()| body(&mut w));
        self.response = written.is_ok();
        *resp_buf = w.finish();
        if !self.response {
            resp_buf.clear();
        }
        self.rcode = self.response.then_some(header.rcode);
        self
    }
}

/// Appends `edns` as the OPT pseudo-record.
fn write_opt(w: &mut MessageWriter, edns: &Edns) -> ProtoResult<()> {
    let opt = edns.to_record();
    w.record(Section::Additional, &opt.name, opt.class, opt.ttl, &opt.rdata)
}

/// The zone whose origin is the longest suffix of `qname`.
fn zone_for<'a>(zones: &'a [Zone], qname: &Name) -> Option<&'a Zone> {
    zones
        .iter()
        .filter(|z| qname.is_subdomain_of(z.origin()))
        .max_by_key(|z| z.origin().label_count())
}

/// What a proper question was classified into: one per query, and the
/// single source of everything that depends on the classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Answer,
    NoData,
    NxDomain,
    Referral,
    Refused,
    Chaos,
    BadVers,
}

impl Outcome {
    /// The header rcode this outcome answers with (BADVERS is NOERROR
    /// there; its extended bits ride the OPT record).
    fn rcode(self) -> Rcode {
        match self {
            Outcome::NxDomain => Rcode::NxDomain,
            Outcome::Refused => Rcode::Refused,
            _ => Rcode::NoError,
        }
    }

    /// Whether the response speaks with this server's authority.
    fn authoritative(self) -> bool {
        matches!(self, Outcome::Answer | Outcome::NoData | Outcome::NxDomain | Outcome::Chaos)
    }

    /// The response classes reflection and water-torture attacks draw —
    /// what [`RrlScope::Abusive`] charges.
    fn abusive(self) -> bool {
        matches!(self, Outcome::NxDomain | Outcome::Referral | Outcome::Refused)
    }

    /// The one [`ServerStats`] counter this outcome lands in.
    fn counter(self, stats: &mut ServerStats) -> &mut u64 {
        match self {
            Outcome::Answer => &mut stats.answers,
            Outcome::NoData => &mut stats.nodata,
            Outcome::NxDomain => &mut stats.nxdomain,
            Outcome::Referral => &mut stats.referrals,
            Outcome::Refused => &mut stats.refused,
            Outcome::Chaos => &mut stats.chaos,
            Outcome::BadVers => &mut stats.badvers,
        }
    }
}

/// The authoritative answer logic, independent of any transport.
///
/// Zones are held behind an [`Arc`] so the multi-threaded serving plane
/// can share one parsed zone set across workers; [`AnswerEngine::fork`]
/// hands each worker its own engine (own stats, shared zones).
#[derive(Debug, Clone)]
pub struct AnswerEngine {
    site_code: String,
    /// The `site=<code>` TXT that replaces the zones' site placeholder,
    /// built once.
    site_txt: RData,
    zones: Arc<Vec<Zone>>,
    stats: ServerStats,
    /// How this site negotiates EDNS sizes and truncates UDP answers.
    policy: TruncationPolicy,
    /// Response-rate limiter, shared across every fork of this engine
    /// (the per-site NXDOMAIN budget is site-wide, and sharing keeps
    /// verdicts independent of reuseport flow hashing). `None` = no
    /// rate limiting; the simulation plane never sets it.
    rrl: Option<SharedRateLimiter>,
    /// `{verdict}` decision-time histograms, when metered.
    verdict_spans: Option<VerdictSpans>,
}

impl AnswerEngine {
    /// An engine identified as `site_code` (e.g. `"FRA"`), serving `zones`.
    pub fn new(site_code: impl Into<String>, zones: Vec<Zone>) -> Self {
        Self::with_shared_zones(site_code, Arc::new(zones))
    }

    /// An engine over an already-shared zone set.
    pub fn with_shared_zones(site_code: impl Into<String>, zones: Arc<Vec<Zone>>) -> Self {
        let site_code = site_code.into();
        let site_txt = Txt::from_string(&format!("site={site_code}"));
        AnswerEngine {
            site_code,
            site_txt: RData::Txt(site_txt.expect("site code fits in a TXT string")),
            zones,
            stats: ServerStats::default(),
            policy: TruncationPolicy::default(),
            rrl: None,
            verdict_spans: None,
        }
    }

    /// Sets this site's EDNS/truncation policy (default: advertise and
    /// cap at [`dnswild_proto::DEFAULT_EDNS_PAYLOAD`]).
    pub fn with_truncation_policy(mut self, policy: TruncationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables response-rate limiting under `policy` with a fresh
    /// limiter. Forks share the limiter, so one call on the template
    /// engine rate-limits the whole serving plane.
    pub fn with_rate_limit(self, policy: RateLimitPolicy) -> Self {
        self.with_shared_rate_limiter(RateLimiter::shared(policy))
    }

    /// Enables response-rate limiting against an existing shared
    /// limiter (e.g. one limiter spanning several engines of a site).
    pub fn with_shared_rate_limiter(mut self, limiter: SharedRateLimiter) -> Self {
        self.rrl = Some(limiter);
        self
    }

    /// Meters RRL decisions into `{verdict}` histograms.
    pub fn with_verdict_spans(mut self, spans: VerdictSpans) -> Self {
        self.verdict_spans = Some(spans);
        self
    }

    /// A worker-private copy: same site identity, same shared zones and
    /// limiter, fresh counters.
    pub fn fork(&self) -> AnswerEngine {
        AnswerEngine { stats: ServerStats::default(), ..self.clone() }
    }

    /// The site identity this engine answers with.
    pub fn site_code(&self) -> &str {
        &self.site_code
    }

    /// Traffic counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Counts a packet dropped before it reached the engine (e.g. a
    /// simulated outage window swallowing traffic).
    pub fn record_drop(&mut self) {
        self.stats.dropped += 1;
    }

    /// Returns the counters accumulated since the last take, resetting
    /// them to zero — how serving-plane workers flush into the shared
    /// atomic aggregate.
    pub fn take_stats(&mut self) -> ServerStats {
        std::mem::take(&mut self.stats)
    }

    /// The zone whose origin is the longest suffix of `qname`.
    pub fn zone_for(&self, qname: &Name) -> Option<&Zone> {
        zone_for(&self.zones, qname)
    }

    /// The TXT payload a CHAOS question is answered with, if it is one
    /// this server answers: its site code for `hostname.bind` /
    /// `id.server`. Any other CHAOS name is REFUSED.
    fn chaos_rdata(&self, question: &Question) -> Option<RData> {
        if question.qtype != RType::Txt {
            return None;
        }
        match question.qname.canonical_wire(&mut [0; MAX_NAME_LEN]) {
            b"\x08hostname\x04bind\0" | b"\x02id\x06server\0" => Some(RData::Txt(
                Txt::from_string(&self.site_code).expect("site code fits in a TXT string"),
            )),
            _ => None,
        }
    }

    /// Runs a chargeable response past the shared limiter. `None` when
    /// the limiter did not intervene (not charged, or within budget).
    /// (Field by field, not `&mut self`: the caller is still holding
    /// the zone's borrowed [`Lookup`].)
    fn rate_limit(
        rrl: &SharedRateLimiter,
        verdict_spans: Option<&VerdictSpans>,
        stats: &mut ServerStats,
        key: u64,
        outcome: Outcome,
    ) -> Option<RrlVerdict> {
        let started = verdict_spans.map(|_| Instant::now());
        let mut limiter = rrl.lock().expect("rate limiter mutex poisoned");
        if limiter.policy().scope == RrlScope::Abusive && !outcome.abusive() {
            return None;
        }
        let decision = limiter.verdict(key, outcome == Outcome::NxDomain);
        drop(limiter);
        if let (Some(t0), Some(vs)) = (started, verdict_spans) {
            vs.record(decision.verdict, t0.elapsed().as_nanos() as u64);
        }
        stats.bucket_evictions += u64::from(decision.evicted);
        match decision.verdict {
            RrlVerdict::Answer => return None,
            RrlVerdict::Slip => stats.rrl_slipped += 1,
            RrlVerdict::Drop => stats.rrl_dropped += 1,
        }
        Some(decision.verdict)
    }

    /// Turns one inbound packet into at most one response, written into
    /// `resp_buf` (cleared first; left empty when nothing is to be sent).
    ///
    /// The entry point of everything that is not a socket loop — the
    /// simulator actor, the benchmarks, the tests:
    /// [`AnswerEngine::handle_packet_from`] with no client key (so rate
    /// limiting never intervenes and the `exp_*` outputs stay
    /// byte-identical whatever policy is configured) and no stage spans
    /// (so no clock is read).
    pub fn handle_packet(
        &mut self,
        payload: &[u8],
        transport: TransportKind,
        resp_buf: &mut Vec<u8>,
    ) -> HandledPacket {
        self.handle_packet_from(payload, transport, None, resp_buf, None)
    }

    /// The full entry point, called by the UDP and TCP serving loops:
    /// malformed-packet salvage (FORMERR when the header is readable),
    /// QR screening, NOTIMP for non-QUERY opcodes, the zone lookup, and
    /// — for [`TransportKind::Udp`] — replacement of answers exceeding
    /// the negotiated payload size by an empty TC=1 response inviting a
    /// TCP retry.
    ///
    /// With `spans` set, the decode / engine / encode stage durations
    /// are recorded into the stage histograms (the transport records
    /// the surrounding recv and send stages).
    ///
    /// With rate limiting enabled and a `client_key` present (the UDP
    /// loop derives it via [`RateLimitPolicy::client_key`]), chargeable
    /// UDP responses are run through the limiter *ahead of encode* —
    /// `Answer` proceeds unchanged, `Slip` replaces the response with a
    /// minimal TC=1 reply, `Drop` suppresses it. TCP is never limited:
    /// answering over TCP is exactly what the slip leak invites, and a
    /// spoofed source cannot complete a handshake.
    pub fn handle_packet_from(
        &mut self,
        payload: &[u8],
        transport: TransportKind,
        client_key: Option<u64>,
        resp_buf: &mut Vec<u8>,
        spans: Option<&StageSpans>,
    ) -> HandledPacket {
        resp_buf.clear();
        let mut clock = StageClock::start(spans.is_some());
        let decoded = Message::decode(payload);
        clock.lap(spans, Stage::Decode);
        let query = match decoded {
            Ok(m) => m,
            Err(_) => {
                // Salvage the ID for a FORMERR when the header is
                // readable; otherwise drop.
                let mut handled = if payload.len() >= Header::WIRE_LEN {
                    self.stats.formerr += 1;
                    let id = u16::from_be_bytes([payload[0], payload[1]]);
                    let header =
                        Header { id, response: true, rcode: Rcode::FormErr, ..Default::default() };
                    let formerr = HandledPacket::new(PacketClass::FormErr);
                    formerr.reply(header, &[], resp_buf, |_| Ok(()))
                } else {
                    self.stats.dropped += 1;
                    HandledPacket::new(PacketClass::Dropped)
                };
                handled.decode_error = true;
                return handled;
            }
        };

        if query.is_response() {
            self.stats.dropped += 1;
            return HandledPacket::new(PacketClass::Dropped);
        }
        // RFC 6891 §6.1.1: a message carrying more than one OPT record
        // is broken at the format level — FORMERR, not a query.
        let refusal = if query.header.opcode != Opcode::Query {
            Some((PacketClass::NotImp, Rcode::NotImp, &mut self.stats.notimp))
        } else if query.opt_count() > 1 {
            Some((PacketClass::FormErr, Rcode::FormErr, &mut self.stats.formerr))
        } else {
            None
        };
        if let Some((class, rcode, counter)) = refusal {
            *counter += 1;
            let header = query.header.reply(rcode);
            return HandledPacket::new(class).reply(header, &query.questions, resp_buf, |_| Ok(()));
        }

        self.stats.queries += 1;
        if transport == TransportKind::Tcp {
            self.stats.tcp_queries += 1;
        }
        let mut handled = HandledPacket::new(PacketClass::Query);
        let Some(question) = query.question() else {
            clock.lap(spans, Stage::Engine);
            return handled;
        };
        handled.question = true;

        // Classify: one `Outcome`, plus what the response will carry —
        // a CHAOS payload, or what the zone still owns (`lookup` borrows
        // it), and the OPT record of the full response.
        let edns = query.edns_info();
        let echo = edns.as_ref().map(|_| Edns::new(self.policy.advertise));
        let (mut chaos, mut lookup, mut opt) = (None, None, None);
        let outcome = if edns.as_ref().is_some_and(|e| e.version != 0) {
            // EDNS version negotiation (RFC 6891 §6.1.3): anything newer
            // than version 0 gets BADVERS — extended RCODE 16, split
            // across our OPT's high bits and a NOERROR header — so the
            // client can retry at version 0.
            let badvers = opt.insert(Edns::new(self.policy.advertise));
            let _header_rcode = badvers.set_extended_rcode(EXTENDED_RCODE_BADVERS);
            Outcome::BadVers
        } else if question.qclass == Class::Ch {
            chaos = self.chaos_rdata(question);
            if chaos.is_some() { Outcome::Chaos } else { Outcome::Refused }
        } else if let Some(zone) = zone_for(&self.zones, &question.qname) {
            // Echo EDNS0 with this site's own payload-size advertisement
            // (only here: CHAOS answers and zone-less REFUSEDs have never
            // carried the echo, and responses stay byte-identical).
            opt = echo.clone();
            let found = lookup.insert(zone.lookup(&question.qname, question.qtype));
            match found {
                Lookup::Answer(_) => Outcome::Answer,
                Lookup::NoData { .. } => Outcome::NoData,
                Lookup::NxDomain { .. } => Outcome::NxDomain,
                Lookup::Referral { .. } => Outcome::Referral,
                Lookup::OutOfZone => Outcome::Refused,
            }
        } else {
            Outcome::Refused
        };
        clock.lap(spans, Stage::Engine);
        *outcome.counter(&mut self.stats) += 1;

        // Response-rate limiting, ahead of encode: abusive response
        // classes (or everything, under `RrlScope::All`) are charged
        // against the client's token bucket, and NXDOMAINs additionally
        // against the site-wide budget. The query is already counted in
        // `queries` and its outcome counter, so the stats books balance
        // whatever the verdict; `rrl_dropped` / `rrl_slipped` record
        // what the limiter did on top.
        if let (TransportKind::Udp, Some(key), Some(rrl)) = (transport, client_key, &self.rrl) {
            let spans = self.verdict_spans.as_ref();
            handled.rrl = Self::rate_limit(rrl, spans, &mut self.stats, key, outcome);
        }
        if handled.rrl == Some(RrlVerdict::Drop) {
            return handled;
        }

        // UDP responses must fit the negotiated payload limit — the
        // client's clamped EDNS advertisement capped by the per-site
        // policy, or the 512-byte floor without EDNS. The limit is the
        // writer's ceiling: the first record past it turns the response
        // into its minimal TC=1 form — same rcode and AA, no records,
        // the OPT echo — inviting a TCP retry. The rate limiter's slip
        // leak is that same form, chosen rather than forced (so
        // `truncated` keeps counting size-driven truncation only).
        let limit = (transport == TransportKind::Udp).then(|| self.policy.udp_limit(edns.as_ref()));
        let slip = handled.rrl == Some(RrlVerdict::Slip);
        let mut oversized = false;
        let site_txt = &self.site_txt;
        let mut header = query.header.reply(outcome.rcode());
        header.authoritative = outcome.authoritative();
        handled = handled.reply(header, &query.questions, resp_buf, |w| {
            let truncate = |w: &mut MessageWriter| {
                w.truncate();
                echo.as_ref().map_or(Ok(()), |echo| write_opt(w, echo))
            };
            if slip {
                return truncate(w);
            }
            if let Some(limit) = limit {
                w.set_ceiling(limit);
            }
            let full = (|| {
                if let Some(rdata) = &chaos {
                    w.record(Section::Answer, &question.qname, Class::Ch, 0, rdata)?;
                }
                match lookup {
                    Some(Lookup::Answer(answer)) => {
                        let placeholder = SITE_PLACEHOLDER.as_bytes();
                        for (owner, r) in answer.records() {
                            // Substitute the site placeholder in TXT answers.
                            let rdata = match &r.rdata {
                                RData::Txt(t) if t.strings().next() == Some(placeholder) => site_txt,
                                other => other,
                            };
                            w.record(Section::Answer, owner, r.class, r.ttl, rdata)?;
                        }
                    }
                    Some(Lookup::NoData { soa } | Lookup::NxDomain { soa }) => {
                        w.record(Section::Authority, &soa.name, soa.class, soa.ttl, &soa.rdata)?;
                    }
                    Some(Lookup::Referral { ns, glue }) => {
                        for r in ns.records() {
                            w.record(Section::Authority, &r.name, r.class, r.ttl, &r.rdata)?;
                        }
                        for r in glue.records() {
                            w.record(Section::Additional, &r.name, r.class, r.ttl, &r.rdata)?;
                        }
                    }
                    Some(Lookup::OutOfZone) | None => {}
                }
                opt.as_ref().map_or(Ok(()), |opt| write_opt(w, opt))
            })();
            // (A question section that alone exceeds the limit trips no
            // write; it is oversized all the same.)
            match limit {
                Some(limit) if full.is_err() || w.written() > limit => {
                    oversized = true;
                    truncate(w)
                }
                _ => full,
            }
        });
        self.stats.truncated += u64::from(oversized);
        clock.lap(spans, Stage::Encode);
        handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswild_proto::{Question, Record};
    use dnswild_zone::presets::test_domain_zone;

    fn origin() -> Name {
        Name::parse("ourtestdomain.nl").unwrap()
    }

    fn engine() -> AnswerEngine {
        AnswerEngine::new("FRA", vec![test_domain_zone(&origin(), 2)])
    }

    /// Runs one packet through a fresh engine, decoding the response.
    fn run(payload: &[u8], transport: TransportKind) -> (Option<Message>, ServerStats) {
        let mut e = engine();
        let mut buf = Vec::new();
        let handled = e.handle_packet(payload, transport, &mut buf);
        let resp = handled.response.then(|| Message::decode(&buf).expect("decodable response"));
        (resp, e.stats())
    }

    #[test]
    fn probe_txt_branded_without_a_simulator() {
        let q = Message::iterative_query(1, origin().prepend("p1-r1").unwrap(), RType::Txt);
        let (resp, stats) = run(&q.encode().unwrap(), TransportKind::Udp);
        let resp = resp.expect("answered");
        assert!(resp.header.authoritative);
        let RData::Txt(t) = &resp.answers[0].rdata else { panic!("not TXT") };
        assert_eq!(t.first_as_string(), "site=FRA");
        assert_eq!(stats.answers, 1);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn off_zone_is_refused() {
        let q = Message::iterative_query(2, Name::parse("example.com").unwrap(), RType::A);
        let (resp, stats) = run(&q.encode().unwrap(), TransportKind::Udp);
        assert_eq!(resp.unwrap().rcode(), Rcode::Refused);
        assert_eq!(stats.refused, 1);
    }

    #[test]
    fn non_query_opcode_is_notimp() {
        let mut q = Message::iterative_query(3, origin(), RType::A);
        q.header.opcode = Opcode::Update;
        let (resp, stats) = run(&q.encode().unwrap(), TransportKind::Udp);
        assert_eq!(resp.unwrap().rcode(), Rcode::NotImp);
        assert_eq!(stats.notimp, 1);
        assert_eq!(stats.queries, 0, "NOTIMP packets are not counted as queries");
    }

    #[test]
    fn garbage_with_readable_header_gets_formerr() {
        let mut garbage = vec![0u8; 12];
        garbage[0] = 0xab;
        garbage[1] = 0xcd;
        garbage.push(0xff); // trailing byte → decode error
        let (resp, stats) = run(&garbage, TransportKind::Udp);
        let resp = resp.expect("FORMERR sent");
        assert_eq!(resp.rcode(), Rcode::FormErr);
        assert_eq!(resp.header.id, 0xabcd);
        assert_eq!(stats.formerr, 1);
    }

    #[test]
    fn truncated_header_is_dropped_silently() {
        let (resp, stats) = run(&[0xab, 0xcd, 0x00], TransportKind::Udp);
        assert!(resp.is_none());
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.formerr, 0);
    }

    #[test]
    fn responses_are_dropped() {
        let q = Message::iterative_query(4, origin(), RType::Ns);
        let resp = Message::response_to(&q, Rcode::NoError);
        let (out, stats) = run(&resp.encode().unwrap(), TransportKind::Udp);
        assert!(out.is_none());
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn undersized_payload_gets_tc_over_udp_but_not_tcp() {
        use dnswild_proto::rdata::Txt;
        let mut zone = test_domain_zone(&origin(), 1);
        let strings: Vec<Vec<u8>> = (0..3).map(|i| vec![b'x' + i as u8; 230]).collect();
        zone.insert(Record::new(
            origin().prepend("mid").unwrap(),
            60,
            RData::Txt(Txt::new(strings).unwrap()),
        ));
        let mut e = AnswerEngine::new("FRA", vec![zone]);
        // ~700B answer, no EDNS → 512-byte limit → TC=1 over UDP.
        let mut q = Message::iterative_query(5, origin().prepend("mid").unwrap(), RType::Txt);
        q.additionals.clear();
        let payload = q.encode().unwrap();
        let mut buf = Vec::new();
        assert!(e.handle_packet(&payload, TransportKind::Udp, &mut buf).response);
        let udp = Message::decode(&buf).unwrap();
        assert!(udp.header.truncated);
        assert!(udp.answers.is_empty());
        // The same query over TCP returns the full answer.
        assert!(e.handle_packet(&payload, TransportKind::Tcp, &mut buf).response);
        let tcp = Message::decode(&buf).unwrap();
        assert!(!tcp.header.truncated);
        assert_eq!(tcp.answers.len(), 1);
        let stats = e.stats();
        assert_eq!(stats.truncated, 1);
        assert_eq!(stats.tcp_queries, 1);
        assert_eq!(stats.queries, 2);
    }

    /// A zone whose `mid.<origin>` TXT answer encodes to roughly
    /// `payload` bytes — the knob the truncation-policy tests turn.
    fn zone_with_txt_of(origin: &Name, total: usize) -> dnswild_zone::Zone {
        use dnswild_proto::rdata::Txt;
        let mut zone = test_domain_zone(origin, 1);
        let strings: Vec<Vec<u8>> =
            (0..total.div_ceil(200)).map(|i| vec![b'a' + i as u8; 200]).collect();
        zone.insert(Record::new(
            origin.prepend("mid").unwrap(),
            60,
            RData::Txt(Txt::new(strings).unwrap()),
        ));
        zone
    }

    #[test]
    fn payload_below_512_clamps_to_512() {
        // ~300B answer; a client advertising 100 bytes still gets it
        // whole, because RFC 6891 clamps advertisements up to 512.
        let mut e = AnswerEngine::new("FRA", vec![zone_with_txt_of(&origin(), 280)]);
        let mut q = Message::iterative_query(41, origin().prepend("mid").unwrap(), RType::Txt);
        q.additionals.clear();
        q.add_edns(100);
        let mut buf = Vec::new();
        assert!(e.handle_packet(&q.encode().unwrap(), TransportKind::Udp, &mut buf).response);
        let resp = Message::decode(&buf).unwrap();
        assert!(!resp.header.truncated, "clamped limit is 512, answer fits");
        assert_eq!(resp.answers.len(), 1);
        assert!(buf.len() > 100 && buf.len() <= 512);
        assert_eq!(e.stats().truncated, 0);
    }

    #[test]
    fn duplicate_opt_records_get_formerr() {
        let mut q = Message::iterative_query(42, origin().prepend("p1-r1").unwrap(), RType::Txt);
        q.add_edns(4096); // iterative_query already added one OPT
        assert_eq!(q.opt_count(), 2);
        let (resp, stats) = run(&q.encode().unwrap(), TransportKind::Udp);
        assert_eq!(resp.unwrap().rcode(), Rcode::FormErr);
        assert_eq!(stats.formerr, 1);
        assert_eq!(stats.queries, 0, "a FORMERR packet is not a query");
        assert_eq!(stats.packets_seen(), 1);
    }

    #[test]
    fn unknown_edns_version_gets_badvers() {
        let mut q = Message::iterative_query(43, origin().prepend("p1-r1").unwrap(), RType::Txt);
        q.additionals.clear();
        let mut edns = dnswild_proto::Edns::new(1232);
        edns.version = 1;
        q.additionals.push(edns.to_record());
        let (resp, stats) = run(&q.encode().unwrap(), TransportKind::Udp);
        let resp = resp.unwrap();
        assert_eq!(resp.rcode(), Rcode::NoError, "low 4 bits of BADVERS are zero");
        assert_eq!(resp.extended_rcode(), dnswild_proto::EXTENDED_RCODE_BADVERS);
        let echoed = resp.edns_info().expect("OPT echoed");
        assert_eq!(echoed.version, 0, "we answer at the version we speak");
        assert!(resp.answers.is_empty(), "BADVERS carries no answer");
        assert_eq!(stats.badvers, 1);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.question_outcomes(), 1);
    }

    #[test]
    fn policy_caps_client_advertisement() {
        // ~700B answer; the client advertises 4096 but the site policy
        // caps UDP at 512 → TC=1. The TC response echoes the policy's
        // own advertisement.
        let policy = TruncationPolicy::symmetric(512);
        let mut e = AnswerEngine::new("FRA", vec![zone_with_txt_of(&origin(), 680)])
            .with_truncation_policy(policy);
        let mut q = Message::iterative_query(44, origin().prepend("mid").unwrap(), RType::Txt);
        q.additionals.clear();
        q.add_edns(4096);
        let mut buf = Vec::new();
        assert!(e.handle_packet(&q.encode().unwrap(), TransportKind::Udp, &mut buf).response);
        let resp = Message::decode(&buf).unwrap();
        assert!(resp.header.truncated);
        let advertised = resp.edns_info().map(|edns| edns.payload_size);
        assert_eq!(advertised, Some(512), "TC echoes the site's advertisement");
        assert_eq!(e.stats().truncated, 1);
        // Forked workers inherit the policy.
        let mut forked = e.fork();
        assert!(forked.handle_packet(&q.encode().unwrap(), TransportKind::Udp, &mut buf).response);
        assert!(Message::decode(&buf).unwrap().header.truncated);
    }

    #[test]
    fn chaos_hostname_bind_identifies_site() {
        let mut q = Message::iterative_query(6, Name::parse("hostname.bind").unwrap(), RType::Txt);
        q.questions[0].qclass = Class::Ch;
        let (resp, stats) = run(&q.encode().unwrap(), TransportKind::Udp);
        let RData::Txt(t) = &resp.unwrap().answers[0].rdata else { panic!("not TXT") };
        assert_eq!(t.first_as_string(), "FRA");
        assert_eq!(stats.chaos, 1);
    }

    #[test]
    fn stats_dnswild_refused_without_telemetry() {
        // The engine holds no telemetry and answers identity, not
        // counters: each counter has its owner's scrape series.
        let mut q =
            Message::iterative_query(11, Name::parse("stats.dnswild").unwrap(), RType::Txt);
        q.questions[0].qclass = Class::Ch;
        let (resp, stats) = run(&q.encode().unwrap(), TransportKind::Udp);
        assert_eq!(resp.unwrap().rcode(), Rcode::Refused);
        assert_eq!(stats.refused, 1);
        assert_eq!(stats.chaos, 0);
    }

    #[test]
    fn spanned_packets_record_decode_engine_encode_stages() {
        let reg = Arc::new(dnswild_metrics::Registry::new());
        let spans = StageSpans::register(&reg);
        let mut e = engine();
        let mut buf = Vec::new();
        let q = Message::iterative_query(31, origin().prepend("p1-r1").unwrap(), RType::Txt);
        let q = q.encode().unwrap();
        let h = e.handle_packet_from(&q, TransportKind::Udp, None, &mut buf, Some(&spans));
        assert!(h.response);
        for stage in [Stage::Decode, Stage::Engine, Stage::Encode] {
            assert_eq!(spans.histogram(stage).count(), 1, "{}", stage.name());
        }
        // Recv/send belong to the transport, not the engine.
        assert_eq!(spans.histogram(Stage::Recv).count(), 0);
        assert_eq!(spans.histogram(Stage::Send).count(), 0);
        // An undecodable datagram still times its decode stage.
        e.handle_packet_from(&[0u8; 2], TransportKind::Udp, None, &mut buf, Some(&spans));
        assert_eq!(spans.histogram(Stage::Decode).count(), 2);
        assert_eq!(spans.histogram(Stage::Engine).count(), 1);
    }

    #[test]
    fn handled_packet_classifies_every_path() {
        let mut e = engine();
        let mut buf = Vec::new();
        let q = Message::iterative_query(13, origin().prepend("p1-q1").unwrap(), RType::Txt);
        let h = e.handle_packet(&q.encode().unwrap(), TransportKind::Udp, &mut buf);
        assert_eq!(h.class, PacketClass::Query);
        assert_eq!(h.rcode, Some(Rcode::NoError));
        let mut upd = Message::iterative_query(14, origin().prepend("x").unwrap(), RType::A);
        upd.header.opcode = Opcode::Update;
        let h = e.handle_packet(&upd.encode().unwrap(), TransportKind::Udp, &mut buf);
        assert_eq!(h.class, PacketClass::NotImp);
        assert_eq!(h.rcode, Some(Rcode::NotImp));
        let mut garbage = vec![0u8; 12];
        garbage.push(0xff);
        let h = e.handle_packet(&garbage, TransportKind::Udp, &mut buf);
        assert_eq!(h.class, PacketClass::FormErr);
        assert_eq!(h.rcode, Some(Rcode::FormErr));
        let h = e.handle_packet(&[0x01, 0x02], TransportKind::Udp, &mut buf);
        assert_eq!(h.class, PacketClass::Dropped);
        assert_eq!(h.rcode, None);
        // One packet, one class: the four calls above land in four
        // distinct packets_seen counters.
        let s = e.stats();
        assert_eq!(s.packets_seen(), 4);
        assert_eq!((s.queries, s.notimp, s.formerr, s.dropped), (1, 1, 1, 1));
    }

    #[test]
    fn chaos_other_name_refused() {
        let q = Message {
            header: dnswild_proto::Header { id: 7, ..Default::default() },
            questions: vec![Question::chaos(Name::parse("version.bind").unwrap(), RType::Txt)],
            answers: vec![],
            authorities: vec![],
            additionals: vec![],
        };
        let (resp, stats) = run(&q.encode().unwrap(), TransportKind::Udp);
        assert_eq!(resp.unwrap().rcode(), Rcode::Refused);
        assert_eq!(stats.refused, 1);
    }

    #[test]
    fn forked_engines_share_zones_but_not_stats() {
        let mut a = engine();
        let mut b = a.fork();
        let q = Message::iterative_query(8, origin().prepend("x").unwrap(), RType::Txt);
        let payload = q.encode().unwrap();
        let mut buf = Vec::new();
        a.handle_packet(&payload, TransportKind::Udp, &mut buf);
        a.handle_packet(&payload, TransportKind::Udp, &mut buf);
        b.handle_packet(&payload, TransportKind::Udp, &mut buf);
        assert_eq!(a.stats().answers, 2);
        assert_eq!(b.stats().answers, 1);
        let merged = ServerStats::aggregate([a.take_stats(), b.take_stats()]);
        assert_eq!(merged.answers, 3);
        assert_eq!(merged.queries, 3);
        assert_eq!(a.stats(), ServerStats::default(), "take_stats resets");
    }

    #[test]
    fn stats_add_covers_every_field() {
        use dnswild_metrics::CounterSet;
        dnswild_metrics::counters::assert_counter_set_covers_every_field::<ServerStats, 16>();
        let ones = ServerStats::from_values([1; 16]);
        let sum = ServerStats::aggregate([ones, ones, ones]);
        assert_eq!(sum, ServerStats::from_values([3; 16]));
        assert_eq!(ones.question_outcomes(), 7);
        let mut acc = ServerStats::default();
        acc += ones;
        acc += ones;
        assert_eq!(acc, ones + ones);
    }

    /// An NXDOMAIN-generating query against the preset zone: the
    /// wildcard only synthesises at the closest encloser, so names
    /// below the existing-but-empty `void.<origin>` node miss it.
    fn nx_query(id: u16, n: u32) -> Message {
        let mut zone_name = origin().prepend("void").unwrap();
        zone_name = zone_name.prepend(&format!("wt{n:04x}")).unwrap();
        Message::iterative_query(id, zone_name, RType::A)
    }

    fn rrl_engine(policy: crate::rrl::RateLimitPolicy) -> AnswerEngine {
        let mut zone = test_domain_zone(&origin(), 2);
        // An empty-looking anchor node: existing, no wildcard below it,
        // so anything under it is NXDOMAIN (see crate::rrl docs).
        zone.insert(Record::new(
            origin().prepend("void").unwrap(),
            60,
            RData::Txt(dnswild_proto::rdata::Txt::from_string("nx-anchor").unwrap()),
        ));
        AnswerEngine::new("FRA", vec![zone]).with_rate_limit(policy)
    }

    #[test]
    fn rrl_drop_suppresses_response_but_books_balance() {
        use crate::rrl::{RateLimitPolicy, RrlVerdict};
        // burst 2, no refill, no slip: queries 3+ are dropped.
        let policy = RateLimitPolicy {
            burst: 2,
            rate: 0,
            period: 1,
            slip: 0,
            ..RateLimitPolicy::default()
        };
        let mut e = rrl_engine(policy);
        let key = Some(7u64);
        let mut buf = Vec::new();
        for n in 0..5 {
            let q = nx_query(n as u16, n).encode().unwrap();
            let h = e.handle_packet_from(&q, TransportKind::Udp, key, &mut buf, None);
            if n < 2 {
                assert!(h.response);
                assert_eq!(h.rrl, None);
            } else {
                assert!(!h.response, "query {n} must be rate-dropped");
                assert_eq!(h.rrl, Some(RrlVerdict::Drop));
                assert!(buf.is_empty());
            }
        }
        let s = e.stats();
        assert_eq!(s.queries, 5);
        assert_eq!(s.nxdomain, 5, "RRL happens after classification");
        assert_eq!(s.rrl_dropped, 3);
        assert_eq!(s.question_outcomes(), s.queries);
        assert_eq!(s.packets_seen(), 5);
    }

    #[test]
    fn rrl_slip_sends_minimal_tc_reply() {
        use crate::rrl::{RateLimitPolicy, RrlVerdict};
        // burst 0, slip 1: every charged response slips as TC=1.
        let policy = RateLimitPolicy {
            burst: 0,
            rate: 0,
            period: 1,
            slip: 1,
            ..RateLimitPolicy::default()
        };
        let mut e = rrl_engine(policy);
        let mut buf = Vec::new();
        let q = nx_query(1, 1).encode().unwrap();
        let h = e.handle_packet_from(&q, TransportKind::Udp, Some(9), &mut buf, None);
        assert!(h.response);
        assert_eq!(h.rrl, Some(RrlVerdict::Slip));
        let resp = Message::decode(&buf).unwrap();
        assert!(resp.header.truncated, "slip answers carry TC=1");
        assert!(resp.answers.is_empty() && resp.authorities.is_empty());
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        let s = e.stats();
        assert_eq!(s.rrl_slipped, 1);
        assert_eq!(s.truncated, 0, "slip is not size-driven truncation");
    }

    #[test]
    fn rrl_abusive_scope_leaves_positive_answers_alone() {
        use crate::rrl::RateLimitPolicy;
        // burst 0 limits every *charged* query — but positive answers
        // are never charged under the default Abusive scope.
        let policy = RateLimitPolicy {
            burst: 0,
            rate: 0,
            period: 1,
            ..RateLimitPolicy::default()
        };
        let mut e = rrl_engine(policy);
        let mut buf = Vec::new();
        let q = Message::iterative_query(1, origin().prepend("p1-r1").unwrap(), RType::Txt);
        let h =
            e.handle_packet_from(&q.encode().unwrap(), TransportKind::Udp, Some(3), &mut buf, None);
        assert!(h.response);
        assert_eq!(h.rrl, None);
        assert_eq!(e.stats().answers, 1);
        assert_eq!(e.stats().rrl_dropped + e.stats().rrl_slipped, 0);
    }

    #[test]
    fn rrl_never_limits_tcp_or_unkeyed_packets() {
        use crate::rrl::RateLimitPolicy;
        let policy = RateLimitPolicy {
            burst: 0,
            rate: 0,
            period: 1,
            slip: 0,
            ..RateLimitPolicy::default()
        };
        let mut e = rrl_engine(policy);
        let mut buf = Vec::new();
        let q = nx_query(1, 1).encode().unwrap();
        // TCP: the slip leak's whole point is that TCP completes.
        let h = e.handle_packet_from(&q, TransportKind::Tcp, Some(3), &mut buf, None);
        assert!(h.response);
        assert_eq!(h.rrl, None);
        // No key (the simulator path): limiter never consulted.
        let h = e.handle_packet_from(&q, TransportKind::Udp, None, &mut buf, None);
        assert!(h.response);
        assert_eq!(h.rrl, None);
        assert_eq!(e.stats().rrl_dropped + e.stats().rrl_slipped, 0);
    }

    #[test]
    fn rrl_forks_share_one_limiter() {
        use crate::rrl::{RateLimitPolicy, RrlVerdict};
        let policy = RateLimitPolicy {
            burst: 2,
            rate: 0,
            period: 1,
            slip: 0,
            ..RateLimitPolicy::default()
        };
        let mut a = rrl_engine(policy);
        let mut b = a.fork();
        let mut buf = Vec::new();
        // Two charged queries through A exhaust the shared bucket...
        for n in 0..2 {
            let q = nx_query(n as u16, n).encode().unwrap();
            assert!(a.handle_packet_from(&q, TransportKind::Udp, Some(5), &mut buf, None).response);
        }
        // ...so the fork's next query for the same key drops.
        let q = nx_query(9, 9).encode().unwrap();
        let h = b.handle_packet_from(&q, TransportKind::Udp, Some(5), &mut buf, None);
        assert_eq!(h.rrl, Some(RrlVerdict::Drop));
        let merged = ServerStats::aggregate([a.take_stats(), b.take_stats()]);
        assert_eq!(merged.rrl_dropped, 1);
        assert_eq!(merged.question_outcomes(), merged.queries);
    }

    #[test]
    fn rrl_verdict_spans_record_decision_times() {
        use crate::rrl::{RateLimitPolicy, RrlVerdict, VerdictSpans};
        let reg = dnswild_metrics::Registry::new();
        let spans = VerdictSpans::register(&reg);
        let policy = RateLimitPolicy {
            burst: 1,
            rate: 0,
            period: 1,
            slip: 0,
            ..RateLimitPolicy::default()
        };
        let mut e = rrl_engine(policy).with_verdict_spans(spans.clone());
        let mut buf = Vec::new();
        for n in 0..3 {
            let q = nx_query(n as u16, n).encode().unwrap();
            e.handle_packet_from(&q, TransportKind::Udp, Some(1), &mut buf, None);
        }
        assert_eq!(spans.histogram(RrlVerdict::Answer).count(), 1);
        assert_eq!(spans.histogram(RrlVerdict::Drop).count(), 2);
    }
}
