//! Equivalence properties of the wire codec.
//!
//! `serde_json::from_str` streams JSON text straight into the wire types;
//! `serde_json::from_str_via_value` parses a `Value` tree first and is the
//! reference. On generated envelopes, and on mangled versions of them
//! (reordered, repeated or unknown keys, integers written as `3.0` or
//! `1e2`, extra whitespace, truncations, byte flips), both paths must give
//! equal values or both an error, and neither may panic.
//!
//! The reactor answers replays and coalesced waiters by splicing an id into
//! one encoding (`EncodedOutcome`); those frames must equal the frames of
//! `encode_response` byte for byte.

use mnc_core::Constraints;
use mnc_runtime::{BatchConfig, MappingRequest, MappingService};
use mnc_server::{Dispatcher, RequestLimits};
use mnc_wire::{
    encode_request, encode_response, frame, EncodedOutcome, WireBatch, WireBody, WireOutcome,
    WirePayload, WireRequest, WireResponse, PROTOCOL_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, JsonReader, Value};
use std::sync::{Arc, OnceLock};

/// Encoded responses to every wire command, answered by a real service.
fn response_corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dispatcher = Dispatcher::new(
            Arc::new(MappingService::new()),
            RequestLimits::default(),
            None,
        );
        let small = |seed| {
            MappingRequest::new("tiny_cnn_cifar10", "dual_test")
                .validation_samples(300)
                .generations(2)
                .population_size(8)
                .seed(seed)
        };
        let bodies = vec![
            WireBody::Ping,
            WireBody::ListModels,
            WireBody::ListPlatforms,
            WireBody::Submit(Box::new(small(1))),
            WireBody::Submit(Box::new(MappingRequest::new("no_such_model", "dual_test"))),
            WireBody::SubmitBatch(WireBatch {
                requests: vec![small(2), small(2), MappingRequest::new("x", "dual_test")],
                config: BatchConfig::new().max_concurrent(2),
            }),
            WireBody::Stats,
            WireBody::Metrics,
            WireBody::Persist,
            WireBody::Shutdown,
        ];
        bodies
            .into_iter()
            .enumerate()
            .map(|(id, body)| {
                let (response, _) = dispatcher.dispatch_guarded(id as u64 + 1, body);
                encode_response(&response).expect("service responses encode")
            })
            .collect()
    })
}

/// An id from every range that matters: small, around `i64::MAX`, above
/// it, and anywhere.
fn random_id(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..5u8) {
        0 => rng.random_range(0..1000u64),
        1 => i64::MAX as u64 - rng.random_range(0..3u64),
        2 => i64::MAX as u64 + 1 + rng.random_range(0..(u64::MAX - i64::MAX as u64)),
        3 => u64::MAX,
        _ => rng.random(),
    }
}

/// A string with characters that need escaping, multi-byte UTF-8 and a
/// raw control character.
fn random_string(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 13] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '漢', '😀',
    ];
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
        .collect()
}

fn maybe<T>(rng: &mut StdRng, value: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.random::<bool>().then(|| value(rng))
}

fn random_request(rng: &mut StdRng) -> MappingRequest {
    let mut request = MappingRequest::new(random_string(rng), random_string(rng))
        .validation_samples(rng.random_range(0..100_000usize))
        .generations(rng.random_range(0..500usize))
        .population_size(rng.random_range(0..500usize))
        .seed(random_id(rng))
        .warm_start(rng.random());
    request.constraints = Constraints {
        latency_target_ms: maybe(rng, |r| r.random::<f64>() * 100.0),
        energy_target_mj: maybe(rng, |r| r.random::<f64>() * 1e6),
        max_fmap_reuse: maybe(rng, |r| r.random()),
        max_accuracy_drop: maybe(rng, |r| r.random::<f64>() * 1e-3),
        memory_reserved_fraction: rng.random(),
    };
    request.max_evaluations = maybe(rng, |r| r.random_range(0..1_000_000usize));
    request.stall_generations = maybe(rng, |r| r.random_range(0..50usize));
    request.threads = maybe(rng, |r| r.random_range(1..64usize));
    request.deadline_ms = maybe(rng, random_id);
    request.tenant = maybe(rng, random_string);
    request.priority = maybe(rng, |r| r.random_range(0..255u8));
    request
}

fn random_wire_request(rng: &mut StdRng) -> WireRequest {
    let body = match rng.random_range(0..10u8) {
        0 => WireBody::Ping,
        1 => WireBody::ListModels,
        2 => WireBody::ListPlatforms,
        3 => WireBody::SubmitBatch(WireBatch {
            requests: (0..rng.random_range(0..4usize))
                .map(|_| random_request(rng))
                .collect(),
            config: BatchConfig {
                max_concurrent: maybe(rng, |r| r.random_range(0..16usize)),
                threads_per_request: maybe(rng, |r| r.random_range(0..16usize)),
            },
        }),
        4 => WireBody::Stats,
        5 => WireBody::Metrics,
        6 => WireBody::Persist,
        7 => WireBody::Shutdown,
        _ => WireBody::Submit(Box::new(random_request(rng))),
    };
    let mut request = WireRequest::new(random_id(rng), body);
    if rng.random_range(0..8u8) == 0 {
        request.version = rng.random();
    }
    request
}

fn parse(text: &str) -> Value {
    JsonReader::new(text)
        .parse_value()
        .expect("generated text parses")
}

/// Replaces numbers with others of the same kind and no larger magnitude
/// (so they still fit their field), and free-text strings with random
/// ones. Enum tags and keys stay, so the text keeps its shape.
fn perturb(value: &mut Value, rng: &mut StdRng) {
    match value {
        Value::Int(n) if rng.random::<bool>() => {
            let bound = n.unsigned_abs().saturating_add(1);
            let magnitude = rng.random_range(0..bound) as i64;
            *n = if *n < 0 { -magnitude } else { magnitude };
        }
        Value::UInt(n) => *n = i64::MAX as u64 + 1 + rng.random_range(0..*n - i64::MAX as u64),
        Value::Float(f) if rng.random::<bool>() => {
            let scale = 10f64.powi(rng.random_range(0..60u32) as i32 - 30);
            let sign = if rng.random::<bool>() { -1.0 } else { 1.0 };
            *f = match rng.random_range(0..4u8) {
                0 => 0.0,
                1 => (rng.random::<f64>() * 1e6).round() * sign,
                _ => rng.random::<f64>() * scale * sign,
            };
        }
        Value::Seq(items) => items.iter_mut().for_each(|item| perturb(item, rng)),
        Value::Map(entries) => {
            for (key, item) in entries.iter_mut() {
                let free_text = matches!(
                    key.as_str(),
                    "model" | "platform" | "message" | "tenant" | "path"
                );
                match item {
                    Value::Str(s) if free_text => *s = random_string(rng),
                    _ => perturb(item, rng),
                }
            }
        }
        _ => {}
    }
}

/// How a text is mangled before both decoders read it.
#[derive(Debug, Clone, Copy)]
struct Mangle {
    /// Chance of whitespace around each token.
    whitespace: f64,
    /// Chance that a map's entries are shuffled.
    shuffle: f64,
    /// Chance that a map gains a repeat of one of its keys.
    repeat: f64,
    /// Chance that a map gains an unknown key.
    unknown: f64,
    /// Chance that an integer is written as `3.0` or `1e2`.
    float_ints: f64,
    /// Cut the text at a random character boundary.
    truncate: bool,
    /// Overwrite a few random bytes.
    flips: usize,
}

impl Mangle {
    /// Compact text, as `serde_json::to_string` writes it.
    const NONE: Mangle = Mangle {
        whitespace: 0.0,
        shuffle: 0.0,
        repeat: 0.0,
        unknown: 0.0,
        float_ints: 0.0,
        truncate: false,
        flips: 0,
    };

    fn random(rng: &mut StdRng) -> Mangle {
        let rate = |rng: &mut StdRng| [0.0, 0.0, 0.01, 0.1, 0.5][rng.random_range(0..5usize)];
        Mangle {
            whitespace: rate(rng),
            shuffle: rate(rng),
            repeat: rate(rng),
            unknown: rate(rng),
            float_ints: rate(rng),
            truncate: rng.random_range(0..5u8) == 0,
            flips: [0, 0, 0, 1, 3][rng.random_range(0..5usize)],
        }
    }

    /// Whether the mangling keeps every valid text valid: whitespace and
    /// key order never change what a text means.
    fn benign(&self) -> bool {
        self.repeat == 0.0
            && self.unknown == 0.0
            && self.float_ints == 0.0
            && !self.truncate
            && self.flips == 0
    }

    fn apply(&self, text: &str, rng: &mut StdRng) -> String {
        let mut out = String::new();
        self.render(&parse(text), rng, &mut out);
        if self.truncate {
            let mut cut = rng.random_range(0..out.len() + 1);
            while !out.is_char_boundary(cut) {
                cut -= 1;
            }
            out.truncate(cut);
        }
        let mut bytes = out.into_bytes();
        for _ in 0..self.flips {
            if bytes.is_empty() {
                break;
            }
            let at = rng.random_range(0..bytes.len());
            bytes[at] = b" \"\\,:[]{}0-.eE1nt"[rng.random_range(0..17usize)];
        }
        // A flip inside a multi-byte character can leave invalid UTF-8,
        // which no `&str` can hold; keep the text unflipped then.
        String::from_utf8(bytes).unwrap_or_else(|_| {
            let mut out = String::new();
            Mangle { flips: 0, ..*self }.render(&parse(text), rng, &mut out);
            out
        })
    }

    fn space(&self, rng: &mut StdRng, out: &mut String) {
        if rng.random::<f64>() < self.whitespace {
            out.push_str([" ", "\n", "\t", "\r\n  "][rng.random_range(0..4usize)]);
        }
    }

    fn render(&self, value: &Value, rng: &mut StdRng, out: &mut String) {
        self.space(rng, out);
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) if rng.random::<f64>() < self.float_ints => {
                if *n != 0 && n % 100 == 0 {
                    out.push_str(&format!("{}e2", n / 100));
                } else {
                    out.push_str(&format!("{n}.0"));
                }
            }
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Float(f) => out.push_str(&format!("{f:?}")),
            Value::Str(s) => out.push_str(&serde_json::to_string(s).unwrap()),
            Value::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.render(item, rng, out);
                }
                self.space(rng, out);
                out.push(']');
            }
            Value::Map(entries) => {
                let mut entries = entries.clone();
                if rng.random::<f64>() < self.shuffle {
                    rand::seq::SliceRandom::shuffle(entries.as_mut_slice(), rng);
                }
                if !entries.is_empty() && rng.random::<f64>() < self.repeat {
                    // The repeat carries the same value or one of another
                    // shape; which one wins depends on where it lands.
                    let (key, value) = entries[rng.random_range(0..entries.len())].clone();
                    let value = if rng.random::<bool>() {
                        value
                    } else {
                        Value::Str("repeat".to_string())
                    };
                    let at = rng.random_range(0..entries.len() + 1);
                    entries.insert(at, (key, value));
                }
                if rng.random::<f64>() < self.unknown {
                    let at = rng.random_range(0..entries.len() + 1);
                    let extra = Value::Seq(vec![Value::Int(3), Value::Map(Vec::new())]);
                    entries.insert(at, ("not_a_field".to_string(), extra));
                }
                out.push('{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.space(rng, out);
                    out.push_str(&serde_json::to_string(key).unwrap());
                    self.space(rng, out);
                    out.push(':');
                    self.render(item, rng, out);
                }
                self.space(rng, out);
                out.push('}');
            }
        }
        self.space(rng, out);
    }
}

/// Decodes `text` on both paths. They must agree; returns whether the
/// text decoded.
fn agree<T: Deserialize + PartialEq + std::fmt::Debug>(text: &str) -> Result<bool, String> {
    match (
        serde_json::from_str::<T>(text),
        serde_json::from_str_via_value::<T>(text),
    ) {
        (Ok(streamed), Ok(reference)) if streamed == reference => Ok(true),
        (Err(_), Err(_)) => Ok(false),
        (streamed, reference) => Err(format!(
            "paths disagree on {text:?}: streamed {streamed:?}, reference {reference:?}"
        )),
    }
}

/// The frame `write_frame` puts on the wire for `text`.
fn framed(text: &str) -> String {
    let mut out = Vec::new();
    frame::write_frame(&mut out, text).unwrap();
    String::from_utf8(out).unwrap()
}

/// The frame `outcome` writes for `id`.
fn spliced(outcome: EncodedOutcome<'_>, id: u64) -> String {
    let mut out = Vec::new();
    outcome.write_frame(id, &mut out);
    String::from_utf8(out).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streaming_and_value_paths_agree_on_generated_envelopes(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = random_wire_request(&mut rng);
        let text = encode_request(&request).unwrap();
        prop_assert_eq!(serde_json::from_str::<WireRequest>(&text), Ok(request.clone()));
        prop_assert_eq!(agree::<WireRequest>(&text), Ok(true));

        let corpus = response_corpus();
        let mut value = parse(&corpus[rng.random_range(0..corpus.len())]);
        perturb(&mut value, &mut rng);
        let mut text = String::new();
        Mangle::NONE.render(&value, &mut rng, &mut text);
        prop_assert_eq!(agree::<WireResponse>(&text), Ok(true));
        let response: WireResponse = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(encode_response(&response).unwrap(), text);
    }

    #[test]
    fn streaming_and_value_paths_agree_on_mangled_envelopes(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus = response_corpus();
        let base = if rng.random::<bool>() {
            encode_request(&random_wire_request(&mut rng)).unwrap()
        } else {
            corpus[rng.random_range(0..corpus.len())].clone()
        };
        let mangle = Mangle::random(&mut rng);
        let text = mangle.apply(&base, &mut rng);
        let as_request = agree::<WireRequest>(&text);
        let as_response = agree::<WireResponse>(&text);
        prop_assert!(as_request.is_ok(), "{}", as_request.unwrap_err());
        prop_assert!(as_response.is_ok(), "{}", as_response.unwrap_err());
        if mangle.benign() {
            prop_assert!(
                as_request == Ok(true) || as_response == Ok(true),
                "{mangle:?} broke a valid text: {text}"
            );
        }
    }

    #[test]
    fn spliced_frames_equal_encoded_responses(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus = response_corpus();
        let mut value = parse(&corpus[rng.random_range(0..corpus.len())]);
        perturb(&mut value, &mut rng);
        let mut text = String::new();
        Mangle::NONE.render(&value, &mut rng, &mut text);
        let response: WireResponse = serde_json::from_str(&text).unwrap();
        let id = random_id(&mut rng);

        // Any outcome: one encoding, any id.
        let outcome_json = serde_json::to_string(&response.outcome).unwrap();
        let expected = WireResponse { version: PROTOCOL_VERSION, id, ..response.clone() };
        prop_assert_eq!(
            spliced(EncodedOutcome::new(&outcome_json), id),
            framed(&encode_response(&expected).unwrap())
        );

        // A front: the cached response JSON, any id.
        if let WireOutcome::Ok(payload) = response.outcome {
            if let WirePayload::Front(front) = *payload {
                let json = serde_json::to_string(&front).unwrap();
                let expected = WireResponse::ok(id, WirePayload::Front(front));
                prop_assert_eq!(
                    spliced(EncodedOutcome::front(&json), id),
                    framed(&encode_response(&expected).unwrap())
                );
            }
        }
    }
}

#[test]
fn the_corpus_covers_a_front() {
    let fronts = response_corpus()
        .iter()
        .filter(|text| text.contains("{\"Ok\":{\"Front\":"))
        .count();
    assert_eq!(fronts, 1, "one submit in the corpus answers with a front");
}
