//! Versioned wire traces (`ccdb.wire_trace/v1`) and DES-oracle replay.
//!
//! A live server records every inbound message together with the
//! decisions it took and the messages it sent, one JSON object per line.
//! Because the [`Engine`] is a pure function of the
//! message sequence, `replay` can rebuild a fresh engine from the trace
//! header, feed the recorded messages back through the *same* sans-io
//! core the discrete-event simulator validated (with its oracle
//! assertions armed), and diff every protocol decision and outgoing
//! message. A zero-diff replay proves the live run made exactly the
//! decisions the simulated protocol would have made.
//!
//! Layout:
//!
//! ```text
//! {"schema":"ccdb.wire_trace/v1","alg":"CB","clients":4,...}   header
//! {"seq":1,"from":0,"c2s":{...},"decisions":[...],"sends":[...]}
//! ...
//! {"footer":true,"messages":812,"commits":40,"aborts":3}
//! ```

use std::io::{self, BufRead, Write};

use ccdb_lock::{ClientId, Mode, TxnId};
use ccdb_model::{table5_database, ClassId, PageId};
use ccdb_obs::Json;
use ccdb_proto::{AbortKind, Algorithm, ReplyKind, Tuning, C2S, S2C};

use crate::engine::{Effects, Engine};

/// Schema tag written in the header line (unsharded v1 traces).
pub const SCHEMA: &str = "ccdb.wire_trace/v1";

/// Schema tag for sharded traces: v1's line shape plus a per-line
/// `shard` tag, a `corder` commit-order stamp, and `engine_shards` in
/// the header. Replay additionally verifies dense sequence numbers,
/// attributes diffs per shard, and checks the cross-shard commit order.
pub const SCHEMA_V2: &str = "ccdb.wire_trace/v2";

/// The run parameters a replay needs to rebuild the engine.
#[derive(Clone, Debug)]
pub struct TraceHeader {
    /// Algorithm the server ran.
    pub algorithm: Algorithm,
    /// Number of client slots.
    pub clients: u32,
    /// Multiprogramming level.
    pub mpl: u32,
    /// Lock table shards.
    pub lock_shards: u32,
    /// Page size (payload accounting).
    pub page_size: u32,
    /// Engine shards of the recording server: `Some(n)` marks a v2
    /// trace (reactor server), `None` a v1 trace (threaded server).
    /// Replay always re-executes through the *serial* engine either
    /// way — the sharded server's global sequence order is its
    /// linearization, so the serial engine is the oracle for both.
    pub engine_shards: Option<u32>,
}

fn page_str(p: PageId) -> String {
    format!("{}:{}", p.class.0, p.atom)
}

fn parse_page(s: &str) -> Result<PageId, String> {
    let (c, a) = s.split_once(':').ok_or_else(|| format!("bad page {s:?}"))?;
    Ok(PageId {
        class: ClassId(c.parse().map_err(|_| format!("bad page {s:?}"))?),
        atom: a.parse().map_err(|_| format!("bad page {s:?}"))?,
    })
}

fn pages_json(pages: &[PageId]) -> Json {
    Json::Arr(pages.iter().map(|p| Json::Str(page_str(*p))).collect())
}

fn parse_pages(j: &Json) -> Result<Vec<PageId>, String> {
    j.items()
        .ok_or("pages not an array")?
        .iter()
        .map(|p| parse_page(p.as_str().ok_or("page not a string")?))
        .collect()
}

/// Encode a client request for the trace.
pub fn c2s_json(m: &C2S) -> Json {
    let mut o = Json::obj();
    match m {
        C2S::LockFetch {
            txn,
            page,
            mode,
            cached_version,
            wait,
            op,
        } => {
            o.set("t", "lock_fetch");
            o.set("txn", txn.0);
            o.set("page", page_str(*page));
            o.set("mode", if *mode == Mode::S { "S" } else { "X" });
            match cached_version {
                Some(v) => o.set("cv", *v),
                None => o.set("cv", Json::Null),
            };
            o.set("wait", *wait);
            o.set("op", *op);
        }
        C2S::Fetch { txn, page, op } => {
            o.set("t", "fetch");
            o.set("txn", txn.0);
            o.set("page", page_str(*page));
            o.set("op", *op);
        }
        C2S::CheckVersion {
            txn,
            page,
            version,
            op,
        } => {
            o.set("t", "check");
            o.set("txn", txn.0);
            o.set("page", page_str(*page));
            o.set("v", *version);
            o.set("op", *op);
        }
        C2S::Commit {
            txn,
            read_set,
            dirty,
            ops_sent,
            op,
        } => {
            o.set("t", "commit");
            o.set("txn", txn.0);
            o.set(
                "reads",
                Json::Arr(
                    read_set
                        .iter()
                        .map(|(p, v)| Json::Arr(vec![Json::Str(page_str(*p)), Json::UInt(*v)]))
                        .collect(),
                ),
            );
            o.set("dirty", pages_json(dirty));
            o.set("ops", *ops_sent);
            o.set("op", *op);
        }
        C2S::CallbackReply {
            page,
            released,
            blocker,
        } => {
            o.set("t", "callback_reply");
            o.set("page", page_str(*page));
            o.set("released", *released);
            match blocker {
                Some(b) => o.set("blocker", b.0),
                None => o.set("blocker", Json::Null),
            };
        }
        C2S::ReleaseRetained { page } => {
            o.set("t", "release_retained");
            o.set("page", page_str(*page));
        }
    }
    o
}

/// Decode a client request from a trace line.
pub fn c2s_from_json(j: &Json) -> Result<C2S, String> {
    let t = j.get("t").and_then(|v| v.as_str()).ok_or("missing t")?;
    let page = |k: &str| -> Result<PageId, String> {
        parse_page(j.get(k).and_then(|v| v.as_str()).ok_or("missing page")?)
    };
    let u64_of = |k: &str| -> Result<u64, String> {
        j.get(k)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing {k}"))
    };
    let bool_of = |k: &str| -> Result<bool, String> {
        match j.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing {k}")),
        }
    };
    match t {
        "lock_fetch" => Ok(C2S::LockFetch {
            txn: TxnId(u64_of("txn")?),
            page: page("page")?,
            mode: match j.get("mode").and_then(|v| v.as_str()) {
                Some("S") => Mode::S,
                Some("X") => Mode::X,
                _ => return Err("bad mode".into()),
            },
            cached_version: match j.get("cv") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_u64().ok_or("bad cv")?),
            },
            wait: bool_of("wait")?,
            op: u64_of("op")?,
        }),
        "fetch" => Ok(C2S::Fetch {
            txn: TxnId(u64_of("txn")?),
            page: page("page")?,
            op: u64_of("op")?,
        }),
        "check" => Ok(C2S::CheckVersion {
            txn: TxnId(u64_of("txn")?),
            page: page("page")?,
            version: u64_of("v")?,
            op: u64_of("op")?,
        }),
        "commit" => {
            let reads = j
                .get("reads")
                .and_then(|v| v.items())
                .ok_or("missing reads")?
                .iter()
                .map(|pair| {
                    let items = pair.items().ok_or("bad read pair")?;
                    if items.len() != 2 {
                        return Err("bad read pair".to_string());
                    }
                    Ok((
                        parse_page(items[0].as_str().ok_or("bad read page")?)?,
                        items[1].as_u64().ok_or("bad read version")?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(C2S::Commit {
                txn: TxnId(u64_of("txn")?),
                read_set: reads,
                dirty: parse_pages(j.get("dirty").ok_or("missing dirty")?)?,
                ops_sent: u64_of("ops")? as u32,
                op: u64_of("op")?,
            })
        }
        "callback_reply" => Ok(C2S::CallbackReply {
            page: page("page")?,
            released: bool_of("released")?,
            blocker: match j.get("blocker") {
                Some(Json::Null) | None => None,
                Some(v) => Some(TxnId(v.as_u64().ok_or("bad blocker")?)),
            },
        }),
        "release_retained" => Ok(C2S::ReleaseRetained {
            page: page("page")?,
        }),
        other => Err(format!("unknown c2s kind {other:?}")),
    }
}

/// Encode a server message for the trace.
pub fn s2c_json(m: &S2C) -> Json {
    let mut o = Json::obj();
    match m {
        S2C::Reply { op, kind } => {
            o.set("t", "reply");
            o.set("op", *op);
            match kind {
                ReplyKind::PageData { version } => {
                    o.set("k", "page");
                    o.set("v", *version);
                }
                ReplyKind::Valid => {
                    o.set("k", "valid");
                }
                ReplyKind::Committed { new_version } => {
                    o.set("k", "committed");
                    o.set("v", *new_version);
                }
                ReplyKind::Aborted => {
                    o.set("k", "aborted");
                }
            }
        }
        S2C::Callback { page } => {
            o.set("t", "callback");
            o.set("page", page_str(*page));
        }
        S2C::Restart {
            txn,
            kind,
            stale_page,
        } => {
            o.set("t", "restart");
            o.set("txn", txn.0);
            o.set(
                "kind",
                match kind {
                    AbortKind::Deadlock => "deadlock",
                    AbortKind::StaleRead => "stale",
                    AbortKind::Validation => "validation",
                },
            );
            match stale_page {
                Some(p) => o.set("stale", page_str(*p)),
                None => o.set("stale", Json::Null),
            };
        }
        S2C::Update { pages, version } => {
            o.set("t", "update");
            o.set("pages", pages_json(pages));
            o.set("v", *version);
        }
        S2C::Invalidate { pages } => {
            o.set("t", "invalidate");
            o.set("pages", pages_json(pages));
        }
    }
    o
}

pub(crate) fn effects_json(eff: &Effects) -> (Json, Json) {
    let decisions = Json::Arr(
        eff.decisions
            .iter()
            .map(|d| Json::Str(d.to_string()))
            .collect(),
    );
    let sends = Json::Arr(
        eff.sends
            .iter()
            .map(|(to, m)| {
                let mut o = Json::obj();
                o.set("to", to.0);
                o.set("s2c", s2c_json(m));
                o
            })
            .collect(),
    );
    (decisions, sends)
}

/// Render one trace line. `shard` is `Some(k)` for a message handled on
/// engine shard `k`, `None` for wide (cross-shard) messages — rendered
/// as `"*"` — and omitted entirely from v1 lines (pass `v2 = false`).
/// `corder` stamps the commit-order counter value of the line's first
/// commit, when the line committed anything.
pub(crate) fn line_json(
    seq: u64,
    v2: bool,
    shard: Option<u32>,
    corder: Option<u64>,
    from: ClientId,
    msg: Option<&C2S>,
    eff: &Effects,
) -> Json {
    let mut o = Json::obj();
    o.set("seq", seq);
    if v2 {
        match shard {
            Some(k) => o.set("shard", k as u64),
            None => o.set("shard", "*"),
        };
        if let Some(c) = corder {
            o.set("corder", c);
        }
    }
    o.set("from", from.0);
    match msg {
        Some(m) => o.set("c2s", c2s_json(m)),
        None => {
            let mut bye = Json::obj();
            bye.set("t", "bye");
            o.set("c2s", bye)
        }
    };
    let (decisions, sends) = effects_json(eff);
    o.set("decisions", decisions);
    o.set("sends", sends);
    o
}

/// Streams a `ccdb.wire_trace/v1` or `/v2` document, one line per
/// message (v2 when the header carries `engine_shards`).
pub struct TraceWriter<W: Write> {
    out: W,
    v2: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Write the header line.
    pub fn new(mut out: W, h: &TraceHeader, oracle: bool) -> io::Result<TraceWriter<W>> {
        let mut o = Json::obj();
        o.set(
            "schema",
            if h.engine_shards.is_some() {
                SCHEMA_V2
            } else {
                SCHEMA
            },
        );
        o.set("alg", h.algorithm.label());
        o.set("clients", h.clients);
        o.set("mpl", h.mpl);
        o.set("lock_shards", h.lock_shards);
        if let Some(n) = h.engine_shards {
            o.set("engine_shards", n);
        }
        o.set("oracle", oracle);
        o.set("db", "table5");
        o.set("page_size", h.page_size);
        writeln!(out, "{}", o.render())?;
        Ok(TraceWriter {
            out,
            v2: h.engine_shards.is_some(),
        })
    }

    /// Record one processed message with everything it produced.
    /// `msg: None` records a disconnect ("bye").
    pub fn record(
        &mut self,
        seq: u64,
        from: ClientId,
        msg: Option<&C2S>,
        eff: &Effects,
    ) -> io::Result<()> {
        self.record_tagged(seq, None, None, from, msg, eff)
    }

    /// [`TraceWriter::record`] with the v2 shard tag and commit-order
    /// stamp (ignored when writing a v1 trace).
    pub fn record_tagged(
        &mut self,
        seq: u64,
        shard: Option<u32>,
        corder: Option<u64>,
        from: ClientId,
        msg: Option<&C2S>,
        eff: &Effects,
    ) -> io::Result<()> {
        let o = line_json(seq, self.v2, shard, corder, from, msg, eff);
        writeln!(self.out, "{}", o.render())
    }

    /// Write one line already rendered by [`crate::ShardedEngine::render`].
    pub(crate) fn record_line(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.out, "{line}")
    }

    /// Write the footer line and flush.
    pub fn finish(&mut self, messages: u64, commits: u64, aborts: u64) -> io::Result<()> {
        let mut o = Json::obj();
        o.set("footer", true);
        o.set("messages", messages);
        o.set("commits", commits);
        o.set("aborts", aborts);
        writeln!(self.out, "{}", o.render())?;
        self.out.flush()
    }
}

/// Outcome of replaying a trace against a fresh engine.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Messages replayed (excluding header/footer).
    pub messages: u64,
    /// Commits the replayed engine produced.
    pub commits: u64,
    /// Aborts the replayed engine produced.
    pub aborts: u64,
    /// Human-readable decision/send mismatches, in trace order.
    pub diffs: Vec<String>,
    /// v2 traces: diff count per shard tag (`"0"`, `"1"`, …, `"*"` for
    /// wide messages). Every shard key from the header is present even
    /// when its count is zero, so "zero decision diffs per shard" is an
    /// explicit per-shard verdict rather than an absence of evidence.
    pub shard_diffs: std::collections::BTreeMap<String, u64>,
}

impl ReplayReport {
    /// Did the live run match the protocol core exactly?
    pub fn ok(&self) -> bool {
        self.diffs.is_empty()
    }
}

fn parse_header(j: &Json) -> Result<TraceHeader, String> {
    let v2 = match j.get("schema").and_then(|v| v.as_str()) {
        Some(s) if s == SCHEMA => false,
        Some(s) if s == SCHEMA_V2 => true,
        other => return Err(format!("unsupported trace schema {other:?}")),
    };
    let alg = j.get("alg").and_then(|v| v.as_str()).ok_or("missing alg")?;
    let algorithm: Algorithm = alg.parse().map_err(|e| format!("{e}"))?;
    let num = |k: &str| -> Result<u32, String> {
        j.get(k)
            .and_then(|v| v.as_u64())
            .map(|v| v as u32)
            .ok_or_else(|| format!("missing {k}"))
    };
    Ok(TraceHeader {
        algorithm,
        clients: num("clients")?,
        mpl: num("mpl")?,
        lock_shards: num("lock_shards")?,
        page_size: num("page_size")?,
        engine_shards: if v2 {
            Some(num("engine_shards")?)
        } else {
            None
        },
    })
}

/// Replay a recorded trace through a fresh [`Engine`] (oracle armed) and
/// diff every decision and send against the recording.
///
/// Both schemas re-execute through the *serial* engine: a v2 trace's
/// global sequence numbers are the sharded server's linearization
/// order, so merging the per-shard streams is just "walk the lines in
/// `seq` order". On top of the v1 decision/send diffing, a v2 replay
/// verifies the merge rule itself:
///
/// * sequence numbers are dense (`1, 2, 3, …` — nothing dropped or
///   duplicated by the shard fan-out);
/// * every single-page message's `shard` tag equals the page-hash shard
///   recomputed from the header's `engine_shards` (wide messages carry
///   `"*"`);
/// * `corder` stamps are exactly `1, 2, 3, …` in seq order — the
///   cross-shard commit order is consistent with the linearization;
/// * diffs are attributed per shard in [`ReplayReport::shard_diffs`].
pub fn replay<R: BufRead>(input: R) -> Result<ReplayReport, String> {
    let mut lines = input.lines();
    let header_line = lines
        .next()
        .ok_or("empty trace")?
        .map_err(|e| e.to_string())?;
    let header = parse_header(&Json::parse(&header_line)?)?;
    let v2 = header.engine_shards.is_some();
    let mut engine = Engine::new(
        header.algorithm,
        Tuning::default(),
        header.clients,
        header.mpl,
        header.lock_shards,
        true,
        table5_database(),
    );
    let mut report = ReplayReport::default();
    if let Some(n) = header.engine_shards {
        for k in 0..n.max(1) {
            report.shard_diffs.insert(k.to_string(), 0);
        }
        report.shard_diffs.insert("*".to_string(), 0);
    }
    let mut saw_footer = false;
    let mut corder_ctr = 0u64;
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(&line)?;
        if matches!(j.get("footer"), Some(Json::Bool(true))) {
            saw_footer = true;
            let want = |k: &str| j.get(k).and_then(|v| v.as_u64());
            if want("commits") != Some(engine.commits) || want("aborts") != Some(engine.aborts) {
                report.diffs.push(format!(
                    "footer: recorded {:?} commits / {:?} aborts, replay produced {} / {}",
                    want("commits"),
                    want("aborts"),
                    engine.commits,
                    engine.aborts
                ));
            }
            continue;
        }
        let seq = j.get("seq").and_then(|v| v.as_u64()).ok_or("missing seq")?;
        let from = ClientId(
            j.get("from")
                .and_then(|v| v.as_u64())
                .ok_or("missing from")? as u32,
        );
        let c2s = j.get("c2s").ok_or("missing c2s")?;
        let mut line_diffs: u64 = 0;
        if v2 && seq != report.messages + 1 {
            report.diffs.push(format!(
                "seq {seq}: sequence not dense (expected {})",
                report.messages + 1
            ));
            line_diffs += 1;
        }
        let shard_key = if v2 {
            match j.get("shard") {
                Some(Json::Str(s)) if s == "*" => "*".to_string(),
                Some(v) => v
                    .as_u64()
                    .map(|k| k.to_string())
                    .ok_or(format!("seq {seq}: bad shard tag"))?,
                None => return Err(format!("seq {seq}: missing shard tag")),
            }
        } else {
            String::new()
        };
        let msg = if c2s.get("t").and_then(|v| v.as_str()) == Some("bye") {
            None
        } else {
            Some(c2s_from_json(c2s)?)
        };
        if v2 {
            // The merge rule: recompute the shard assignment from the
            // message itself and the header's shard count.
            let expect =
                match crate::shard::shard_of_msg(msg.as_ref(), header.engine_shards.unwrap_or(1)) {
                    Some(k) => k.to_string(),
                    None => "*".to_string(),
                };
            if expect != shard_key {
                report.diffs.push(format!(
                    "seq {seq}: shard tag {shard_key:?} but page-hash places it on {expect:?}"
                ));
                line_diffs += 1;
            }
        }
        let eff = match msg {
            None => engine.disconnect(from),
            Some(m) => engine.apply(from, m),
        };
        report.messages += 1;
        let (decisions, sends) = effects_json(&eff);
        let recorded_decisions = j.get("decisions").ok_or("missing decisions")?;
        let recorded_sends = j.get("sends").ok_or("missing sends")?;
        if recorded_decisions.render() != decisions.render() {
            report.diffs.push(format!(
                "seq {seq}: decisions diverge\n  recorded: {}\n  replayed: {}",
                recorded_decisions.render(),
                decisions.render()
            ));
            line_diffs += 1;
        }
        if recorded_sends.render() != sends.render() {
            report.diffs.push(format!(
                "seq {seq}: sends diverge\n  recorded: {}\n  replayed: {}",
                recorded_sends.render(),
                sends.render()
            ));
            line_diffs += 1;
        }
        if v2 {
            let committed = eff
                .decisions
                .iter()
                .filter(|d| matches!(d, crate::engine::Decision::Committed { .. }))
                .count() as u64;
            let recorded_corder = j.get("corder").and_then(|v| v.as_u64());
            match (committed > 0, recorded_corder) {
                (true, Some(c)) => {
                    if c != corder_ctr + 1 {
                        report.diffs.push(format!(
                            "seq {seq}: corder {c} but {} commits seen before this line",
                            corder_ctr
                        ));
                        line_diffs += 1;
                    }
                    corder_ctr += committed;
                }
                (true, None) => {
                    report.diffs.push(format!(
                        "seq {seq}: line commits but carries no corder stamp"
                    ));
                    line_diffs += 1;
                }
                (false, Some(c)) => {
                    report.diffs.push(format!(
                        "seq {seq}: corder {c} on a line that commits nothing"
                    ));
                    line_diffs += 1;
                }
                (false, None) => {}
            }
            if line_diffs > 0 {
                *report.shard_diffs.entry(shard_key).or_insert(0) += line_diffs;
            }
        }
    }
    if !saw_footer {
        report
            .diffs
            .push("trace has no footer (server did not shut down cleanly)".to_string());
    }
    report.commits = engine.commits;
    report.aborts = engine.aborts;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn run_trace(alg: Algorithm) -> Vec<u8> {
        let header = TraceHeader {
            algorithm: alg,
            clients: 2,
            mpl: 50,
            lock_shards: 1,
            page_size: 256,
            engine_shards: None,
        };
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &header, true).unwrap();
        let mut e = Engine::new(alg, Tuning::default(), 2, 50, 1, true, table5_database());
        let t = TxnId(1);
        let msgs = [
            (
                ClientId(0),
                C2S::LockFetch {
                    txn: t,
                    page: PageId {
                        class: ClassId(0),
                        atom: 7,
                    },
                    mode: Mode::X,
                    cached_version: None,
                    wait: true,
                    op: 1,
                },
            ),
            (
                ClientId(0),
                C2S::Commit {
                    txn: t,
                    read_set: vec![(
                        PageId {
                            class: ClassId(0),
                            atom: 7,
                        },
                        0,
                    )],
                    dirty: vec![PageId {
                        class: ClassId(0),
                        atom: 7,
                    }],
                    ops_sent: 1,
                    op: 2,
                },
            ),
        ];
        let mut seq = 0;
        for (from, m) in msgs {
            seq += 1;
            let eff = e.apply(from, m.clone());
            w.record(seq, from, Some(&m), &eff).unwrap();
        }
        seq += 1;
        let eff = e.disconnect(ClientId(0));
        w.record(seq, ClientId(0), None, &eff).unwrap();
        w.finish(seq, e.commits, e.aborts).unwrap();
        buf
    }

    #[test]
    fn faithful_trace_replays_clean() {
        let buf = run_trace(Algorithm::TwoPhase { inter: false });
        let report = replay(BufReader::new(&buf[..])).unwrap();
        assert!(report.ok(), "diffs: {:?}", report.diffs);
        assert_eq!(report.messages, 3);
        assert_eq!(report.commits, 1);
    }

    #[test]
    fn tampered_trace_is_caught() {
        let buf = run_trace(Algorithm::TwoPhase { inter: false });
        let text = String::from_utf8(buf).unwrap();
        // Flip the recorded lock decision from granted to blocked.
        let bad = text.replace("-> granted", "-> blocked");
        assert_ne!(text, bad);
        let report = replay(BufReader::new(bad.as_bytes())).unwrap();
        assert!(!report.ok());
        assert!(report.diffs[0].contains("decisions diverge"));
    }

    #[test]
    fn c2s_json_roundtrips() {
        let m = C2S::Commit {
            txn: TxnId(0x0000_0002_0000_0009),
            read_set: vec![(
                PageId {
                    class: ClassId(3),
                    atom: 17,
                },
                4,
            )],
            dirty: vec![],
            ops_sent: 2,
            op: 5,
        };
        let j = c2s_json(&m);
        let back = c2s_from_json(&Json::parse(&j.render()).unwrap()).unwrap();
        assert_eq!(back, m);
    }
}
