//! Human-diffable JSON codec.
//!
//! One flat object per line: a header line
//! `{"trace":"protolat","version":1}`, then one line per event, then
//! the end-of-log trailer `{"t":"end","events":N}`.  Values are only
//! unsigned integers, strings, and booleans, so the parser is a small
//! hand-rolled scanner (the workspace deliberately has no serde
//! dependency).  Line-oriented output means `diff` on two traces shows
//! exactly the diverging events.

use std::fmt::Write as _;
use std::io::Write;

use netsim::Fate;

use crate::binary::{Record, FORMAT_VERSION};
use crate::error::TraceError;
use crate::event::{
    policy_code, policy_name, scenario_code, scenario_name, stream_code, stream_name, wire_code,
    wire_name, ConfigRecord, PhaseRec, StreamRec, TraceEvent, MAX_PHASES,
};

// ---------------------------------------------------------------- encode

fn esc(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn kv_num(out: &mut String, k: &str, v: u64) {
    let _ = write!(out, ",\"{k}\":{v}");
}

fn kv_str(out: &mut String, k: &str, v: &str) {
    let _ = write!(out, ",\"{k}\":\"");
    esc(out, v);
    out.push('"');
}

fn kv_bool(out: &mut String, k: &str, v: bool) {
    let _ = write!(out, ",\"{k}\":{v}");
}

fn stream_kvs(out: &mut String, prefix: &str, s: &StreamRec) {
    let name = stream_name(s.kind).expect("stream kind code");
    kv_str(out, prefix, name);
    kv_num(out, &format!("{prefix}_a"), u64::from(s.a));
    kv_num(out, &format!("{prefix}_b"), u64::from(s.b));
}

fn config_line(c: &ConfigRecord) -> String {
    let mut o = String::with_capacity(512);
    o.push_str("{\"t\":\"config\"");
    kv_str(&mut o, "scenario", scenario_name(c.scenario_kind).expect("scenario kind code"));
    kv_num(&mut o, "scenario_a", c.scenario_a);
    kv_num(&mut o, "scenario_b", c.scenario_b);
    kv_num(&mut o, "messages_per_worker", u64::from(c.messages_per_worker));
    kv_num(&mut o, "sessions", u64::from(c.sessions));
    kv_num(&mut o, "shards", u64::from(c.shards));
    kv_num(&mut o, "shard_capacity", u64::from(c.shard_capacity));
    kv_num(&mut o, "shard_budget_bytes", u64::from(c.shard_budget_bytes));
    kv_num(&mut o, "milli_theta", u64::from(c.milli_theta));
    kv_num(&mut o, "workers", u64::from(c.workers));
    kv_num(&mut o, "executors", u64::from(c.executors));
    kv_num(&mut o, "seed", c.seed);
    kv_num(&mut o, "drop_ppm", u64::from(c.drop_ppm));
    kv_num(&mut o, "corrupt_ppm", u64::from(c.corrupt_ppm));
    kv_num(&mut o, "reorder_ppm", u64::from(c.reorder_ppm));
    kv_num(&mut o, "duplicate_ppm", u64::from(c.duplicate_ppm));
    kv_str(&mut o, "wire", wire_name(c.wire_kind).expect("wire path code"));
    kv_num(&mut o, "truncate_ppm", u64::from(c.truncate_ppm));
    kv_num(&mut o, "malform_ppm", u64::from(c.malform_ppm));
    kv_num(&mut o, "fragment_ppm", u64::from(c.fragment_ppm));
    kv_str(&mut o, "policy", policy_name(c.policy_kind).expect("policy kind code"));
    kv_num(&mut o, "policy_param", u64::from(c.policy_param));
    stream_kvs(&mut o, "stream", &c.stream);
    kv_num(&mut o, "phases", u64::from(c.n_phases));
    for (i, p) in c.phases().iter().enumerate() {
        stream_kvs(&mut o, &format!("p{i}_stream"), &p.stream);
        kv_num(&mut o, &format!("p{i}_milli_theta"), u64::from(p.milli_theta));
        kv_num(&mut o, &format!("p{i}_duration_ns"), p.duration_ns);
        kv_num(&mut o, &format!("p{i}_settle_ns"), p.settle_ns);
    }
    o.push('}');
    o
}

pub fn write_header(w: &mut impl Write) -> std::io::Result<()> {
    writeln!(w, "{{\"trace\":\"protolat\",\"version\":{FORMAT_VERSION}}}")
}

pub fn write_event(w: &mut impl Write, ev: &TraceEvent) -> std::io::Result<()> {
    let line = match ev {
        TraceEvent::Config(c) => config_line(c),
        TraceEvent::Arrival { lane, at, session } => {
            let mut o = String::from("{\"t\":\"arrival\"");
            kv_num(&mut o, "lane", u64::from(*lane));
            kv_num(&mut o, "at", *at);
            kv_num(&mut o, "session", u64::from(*session));
            o.push('}');
            o
        }
        TraceEvent::Fate { lane, fate } => {
            let mut o = String::from("{\"t\":\"fate\"");
            kv_num(&mut o, "lane", u64::from(*lane));
            kv_str(&mut o, "fate", fate.name());
            o.push('}');
            o
        }
        TraceEvent::Rto(r) => {
            let mut o = String::from("{\"t\":\"rto\"");
            kv_num(&mut o, "lane", u64::from(r.lane));
            kv_num(&mut o, "at", r.at);
            kv_num(&mut o, "session", u64::from(r.session));
            kv_num(&mut o, "born", r.born);
            o.push('}');
            o
        }
        TraceEvent::Verdict(v) => {
            let mut o = String::from("{\"t\":\"verdict\"");
            kv_num(&mut o, "lane", u64::from(v.lane));
            kv_num(&mut o, "at", v.at);
            kv_num(&mut o, "fp", v.trigger_fp);
            kv_str(&mut o, "from", &v.from);
            kv_str(&mut o, "to", &v.to);
            kv_bool(&mut o, "noop", v.noop);
            o.push('}');
            o
        }
    };
    writeln!(w, "{line}")
}

pub fn write_end(w: &mut impl Write, events: u64) -> std::io::Result<()> {
    writeln!(w, "{{\"t\":\"end\",\"events\":{events}}}")
}

// ---------------------------------------------------------------- decode

#[derive(Debug, PartialEq)]
enum Val {
    Num(u64),
    Str(String),
    Bool(bool),
}

struct Obj {
    pairs: Vec<(String, Val)>,
    line: u64,
    offset: u64,
}

impl Obj {
    fn err(&self, what: &'static str) -> TraceError {
        TraceError::BadJson { line: self.line, offset: self.offset, what }
    }

    fn get(&self, k: &str) -> Option<&Val> {
        self.pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v)
    }

    fn num(&self, k: &str, what: &'static str) -> Result<u64, TraceError> {
        match self.get(k) {
            Some(Val::Num(n)) => Ok(*n),
            _ => Err(self.err(what)),
        }
    }

    fn num32(&self, k: &str, what: &'static str) -> Result<u32, TraceError> {
        u32::try_from(self.num(k, what)?).map_err(|_| self.err(what))
    }

    fn str_(&self, k: &str, what: &'static str) -> Result<&str, TraceError> {
        match self.get(k) {
            Some(Val::Str(s)) => Ok(s),
            _ => Err(self.err(what)),
        }
    }

    fn bool_(&self, k: &str, what: &'static str) -> Result<bool, TraceError> {
        match self.get(k) {
            Some(Val::Bool(b)) => Ok(*b),
            _ => Err(self.err(what)),
        }
    }
}

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
    line: u64,
    offset: u64,
}

impl<'a> Scanner<'a> {
    fn err(&self, what: &'static str) -> TraceError {
        TraceError::BadJson { line: self.line, offset: self.offset, what }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t') {
            self.i += 1;
        }
    }

    fn eat(&mut self, ch: u8, what: &'static str) -> Result<(), TraceError> {
        self.ws();
        if self.i < self.b.len() && self.b[self.i] == ch {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, TraceError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            if self.b.len() - self.i < 4 {
                                return Err(self.err("bad unicode escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| self.err("bad unicode escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad unicode escape"))?;
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.err("bad unicode escape"))?;
                            out.push(ch);
                            self.i += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy raw UTF-8 bytes through; the input slice came
                    // from a &str so multi-byte sequences are valid.
                    let start = self.i - 1;
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("bad utf-8 in string")),
                    };
                    if start + len > self.b.len() {
                        return Err(self.err("bad utf-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.b[start..start + len])
                        .map_err(|_| self.err("bad utf-8 in string"))?;
                    out.push_str(s);
                    self.i = start + len;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Val, TraceError> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => {
                if self.b[self.i..].starts_with(b"true") {
                    self.i += 4;
                    Ok(Val::Bool(true))
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b'f') => {
                if self.b[self.i..].starts_with(b"false") {
                    self.i += 5;
                    Ok(Val::Bool(false))
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                s.parse::<u64>().map(Val::Num).map_err(|_| self.err("number out of range"))
            }
            _ => Err(self.err("expected value")),
        }
    }
}

fn parse_obj(s: &str, line: u64, offset: u64) -> Result<Obj, TraceError> {
    let mut sc = Scanner { b: s.as_bytes(), i: 0, line, offset };
    sc.eat(b'{', "expected object")?;
    let mut pairs = Vec::new();
    if sc.peek() == Some(b'}') {
        sc.i += 1;
    } else {
        loop {
            let key = sc.string()?;
            sc.eat(b':', "expected colon")?;
            let val = sc.value()?;
            pairs.push((key, val));
            match sc.peek() {
                Some(b',') => sc.i += 1,
                Some(b'}') => {
                    sc.i += 1;
                    break;
                }
                _ => return Err(sc.err("expected comma or close brace")),
            }
        }
    }
    sc.ws();
    if sc.i != sc.b.len() {
        return Err(sc.err("trailing bytes after object"));
    }
    Ok(Obj { pairs, line, offset })
}

/// Parse the header line.  A line that is not the protolat header at
/// all is `BadMagic` (not a trace file); a protolat header with an
/// unsupported version is `Version`.
pub fn parse_header(s: &str, line: u64, offset: u64) -> Result<(), TraceError> {
    let obj = parse_obj(s, line, offset).map_err(|_| TraceError::BadMagic { offset })?;
    match obj.get("trace") {
        Some(Val::Str(name)) if name == "protolat" => {}
        _ => return Err(TraceError::BadMagic { offset }),
    }
    let found = obj.num("version", "header version")?;
    let found = u16::try_from(found)
        .map_err(|_| TraceError::Version { found: u16::MAX, supported: FORMAT_VERSION, offset })?;
    if found != FORMAT_VERSION {
        return Err(TraceError::Version { found, supported: FORMAT_VERSION, offset });
    }
    Ok(())
}

fn parse_stream(obj: &Obj, prefix: &str) -> Result<StreamRec, TraceError> {
    let kind = stream_code(obj.str_(prefix, "stream kind")?)
        .ok_or_else(|| obj.err("unknown stream kind"))?;
    Ok(StreamRec {
        kind,
        a: obj.num32(&format!("{prefix}_a"), "stream parameter")?,
        b: obj.num32(&format!("{prefix}_b"), "stream parameter")?,
    })
}

fn parse_config(obj: &Obj) -> Result<ConfigRecord, TraceError> {
    let scenario_kind = scenario_code(obj.str_("scenario", "scenario kind")?)
        .ok_or_else(|| obj.err("unknown scenario kind"))?;
    let wire_kind =
        wire_code(obj.str_("wire", "wire path")?).ok_or_else(|| obj.err("unknown wire path"))?;
    let policy_kind = policy_code(obj.str_("policy", "policy kind")?)
        .ok_or_else(|| obj.err("unknown policy kind"))?;
    let n_phases = obj.num32("phases", "phase count")?;
    if n_phases as usize > MAX_PHASES {
        return Err(obj.err("phase count"));
    }
    let mut phases = [PhaseRec::default(); MAX_PHASES];
    for (i, slot) in phases.iter_mut().enumerate().take(n_phases as usize) {
        *slot = PhaseRec {
            stream: parse_stream(obj, &format!("p{i}_stream"))?,
            milli_theta: obj.num32(&format!("p{i}_milli_theta"), "phase theta")?,
            duration_ns: obj.num(&format!("p{i}_duration_ns"), "phase duration")?,
            settle_ns: obj.num(&format!("p{i}_settle_ns"), "phase settle")?,
        };
    }
    Ok(ConfigRecord {
        scenario_kind,
        scenario_a: obj.num("scenario_a", "scenario parameter")?,
        scenario_b: obj.num("scenario_b", "scenario parameter")?,
        messages_per_worker: obj.num32("messages_per_worker", "messages_per_worker")?,
        sessions: obj.num32("sessions", "sessions")?,
        shards: obj.num32("shards", "shards")?,
        shard_capacity: obj.num32("shard_capacity", "shard_capacity")?,
        shard_budget_bytes: obj.num32("shard_budget_bytes", "shard_budget_bytes")?,
        milli_theta: obj.num32("milli_theta", "milli_theta")?,
        workers: obj.num32("workers", "workers")?,
        executors: obj.num32("executors", "executors")?,
        seed: obj.num("seed", "seed")?,
        drop_ppm: obj.num32("drop_ppm", "drop_ppm")?,
        corrupt_ppm: obj.num32("corrupt_ppm", "corrupt_ppm")?,
        reorder_ppm: obj.num32("reorder_ppm", "reorder_ppm")?,
        duplicate_ppm: obj.num32("duplicate_ppm", "duplicate_ppm")?,
        wire_kind,
        truncate_ppm: obj.num32("truncate_ppm", "truncate_ppm")?,
        malform_ppm: obj.num32("malform_ppm", "malform_ppm")?,
        fragment_ppm: obj.num32("fragment_ppm", "fragment_ppm")?,
        policy_kind,
        policy_param: obj.num32("policy_param", "policy_param")?,
        stream: parse_stream(obj, "stream")?,
        n_phases,
        phases,
    })
}

/// Parse one event (or end-trailer) line.
pub fn parse_line(s: &str, line: u64, offset: u64) -> Result<Record, TraceError> {
    let obj = parse_obj(s, line, offset)?;
    let rec = match obj.str_("t", "event type")? {
        "config" => Record::Event(TraceEvent::Config(Box::new(parse_config(&obj)?))),
        "arrival" => Record::Event(TraceEvent::Arrival {
            lane: obj.num32("lane", "arrival lane")?,
            at: obj.num("at", "arrival time")?,
            session: obj.num32("session", "arrival session")?,
        }),
        "fate" => Record::Event(TraceEvent::Fate {
            lane: obj.num32("lane", "fate lane")?,
            fate: Fate::from_name(obj.str_("fate", "fate name")?)
                .ok_or_else(|| obj.err("unknown fate name"))?,
        }),
        "rto" => Record::Event(TraceEvent::Rto(Box::new(crate::event::RtoRec {
            lane: obj.num32("lane", "rto lane")?,
            at: obj.num("at", "rto time")?,
            session: obj.num32("session", "rto session")?,
            born: obj.num("born", "rto born time")?,
        }))),
        "verdict" => Record::Event(TraceEvent::Verdict(Box::new(crate::event::VerdictRec {
            lane: obj.num32("lane", "verdict lane")?,
            at: obj.num("at", "verdict time")?,
            trigger_fp: obj.num("fp", "verdict fingerprint")?,
            from: obj.str_("from", "verdict from-layout")?.to_string(),
            to: obj.str_("to", "verdict to-layout")?.to_string(),
            noop: obj.bool_("noop", "verdict noop flag")?,
        }))),
        "end" => Record::End { events: obj.num("events", "end event count")? },
        _ => return Err(obj.err("unknown event type")),
    };
    Ok(rec)
}
