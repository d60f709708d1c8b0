//! Output checks against the reference digests stored with the
//! benchmark (`refs/*.tsv`, regenerated with `--write-refs`), and the
//! rule for what counts as a failed operation.
//!
//! References cover every input a generator can produce, so a run on
//! any seed is checked in full.

use common::digest::Fnv1a;
use isa::EventCounts;
use std::collections::HashMap;
use std::fmt::Write as _;
use xpd::client::QueryError;
use xpd::QueryResponse;

/// Reference tables, compiled in so a run never depends on its working
/// directory. Each line is `key<TAB>digest[<TAB>value]`.
pub const SWEEP_REFS: &str = include_str!("../refs/sweep.tsv");
pub const POINT32_REFS: &str = include_str!("../refs/point32.tsv");
pub const SERVE_REFS: &str = include_str!("../refs/serve.tsv");

/// A parsed reference table: key → the fields after it.
pub struct Refs(HashMap<String, Vec<String>>);

impl Refs {
    pub fn parse(text: &str) -> Refs {
        Refs(
            text.lines()
                .filter(|l| !l.is_empty())
                .filter_map(|l| {
                    let mut fields = l.split('\t').map(str::to_string);
                    Some((fields.next()?, fields.collect()))
                })
                .collect(),
        )
    }

    /// Whether `fields` equal the reference filed under `key`. A key
    /// with no reference fails: an unchecked output is not a correct one.
    pub fn matches(&self, key: &str, fields: &[String]) -> bool {
        self.0.get(key).is_some_and(|r| r.as_slice() == fields)
    }

    /// Whether the first reference field under `key` is `digest`.
    pub fn first_field_is(&self, key: &str, digest: &str) -> bool {
        self.0
            .get(key)
            .is_some_and(|r| r.first().map(String::as_str) == Some(digest))
    }
}

/// FNV-1a digest of every field of a simulation's event counts, in a
/// fixed textual form (so a new field elsewhere in the struct does not
/// disturb it, while any changed count does).
pub fn counts_digest(c: &EventCounts) -> String {
    let mut s = String::new();
    for (op, n) in c.instrs.iter() {
        let _ = write!(s, "{op:?}={n};");
    }
    for (t, n) in c.txns.iter() {
        let _ = write!(s, "{t:?}={n};");
    }
    let _ = write!(
        s,
        "xb={};hb={};sb={};stall={};busy={};idle={};t={:?}",
        c.inter_gpm_bytes.count(),
        c.inter_gpm_hop_bytes.count(),
        c.switch_bytes.count(),
        c.stall_cycles,
        c.busy_sm_cycles,
        c.idle_sm_cycles,
        c.elapsed.secs()
    );
    Fnv1a::of(&s).hex()
}

/// FNV-1a digest of a served payload.
pub fn payload_digest(payload: &str) -> String {
    Fnv1a::of(payload).hex()
}

/// How one daemon answer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Ok,
    Busy,
    Timeout,
    Error,
    /// `ok`, but the payload differs from the reference (or has none).
    Mismatch,
    /// The request never got an answer (connect, send, torn reply).
    Transport,
}

impl Answer {
    pub fn failed(self) -> bool {
        self != Answer::Ok
    }
}

/// Classifies one daemon answer for the query filed under `key`.
pub fn classify(refs: &Refs, key: &str, answer: &Result<QueryResponse, QueryError>) -> Answer {
    let resp = match answer {
        Ok(resp) => resp,
        Err(_) => return Answer::Transport,
    };
    match resp.status.as_str() {
        "ok" => match &resp.payload {
            Some(p) if refs.matches(key, &[payload_digest(p)]) => Answer::Ok,
            _ => Answer::Mismatch,
        },
        "busy" => Answer::Busy,
        "timeout" => Answer::Timeout,
        _ => Answer::Error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpd::Source;

    fn refs() -> Refs {
        Refs::parse(&format!("fig2\t{}\n", payload_digest("right\n")))
    }

    #[test]
    fn matching_payload_is_ok() {
        let ok = Ok(QueryResponse::ok("d", Source::Store, "right\n"));
        assert_eq!(classify(&refs(), "fig2", &ok), Answer::Ok);
        assert!(!Answer::Ok.failed());
    }

    #[test]
    fn busy_timeout_error_and_byte_mismatch_all_fail() {
        let refs = refs();
        let cases = [
            (Ok(QueryResponse::busy("queue full")), Answer::Busy),
            (Ok(QueryResponse::timeout("deadline")), Answer::Timeout),
            (Ok(QueryResponse::error("engine failed")), Answer::Error),
            (
                Ok(QueryResponse::ok("d", Source::Computed, "wrong\n")),
                Answer::Mismatch,
            ),
            (
                Err(QueryError::Retryable("torn".to_string())),
                Answer::Transport,
            ),
        ];
        for (answer, want) in cases {
            let got = classify(&refs, "fig2", &answer);
            assert_eq!(got, want);
            assert!(got.failed(), "{want:?} must count as a failure");
        }
    }

    #[test]
    fn unreferenced_key_fails() {
        let ok = Ok(QueryResponse::ok("d", Source::Store, "right\n"));
        assert_eq!(classify(&refs(), "fig9", &ok), Answer::Mismatch);
    }
}
