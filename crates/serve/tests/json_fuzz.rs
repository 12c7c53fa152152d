//! Seeded, std-only fuzzing of the serve protocol's JSON codec: a
//! damaged or adversarial body must always come back as `Ok` or `Err`,
//! never as a panic, an abort or a hang.
//!
//! Round trips: random documents survive `to_string_compact` → `parse`,
//! and random strings survive every way of writing them (raw bytes,
//! short escapes, `\u` escapes in either case, surrogate pairs outside
//! the Basic Multilingual Plane) side by side. The
//! strings mix multi-byte UTF-8, raw control characters and the
//! characters that need escapes, because the parser copies the runs
//! between escapes in one piece and those runs end next to each of them.
//!
//! Damage: every prefix and every single-byte corruption of two real
//! submit bodies (a profile job and an analyze job) parses or fails
//! cleanly, and what parses also decodes or fails cleanly as a job.

use std::fmt::Write;

use algoprof::{record_source_with, AlgoProfOptions, JobSpec};
use algoprof_serve::api::{job_from_json, job_to_json};
use algoprof_serve::json::{parse, Json};

/// xorshift64*, seeded per check so every failure replays.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// What random strings are made of: ASCII, multi-byte UTF-8 of two,
/// three and four bytes, every character with a short escape, raw
/// control characters, and text that looks like an escape once escaped.
const PIECES: &[&str] = &[
    "a", "xyz", " ", "é", "日本", "🙂", "\u{2028}", "\u{fffd}", "\"", "\\", "/", "\n", "\r", "\t",
    "\u{8}", "\u{c}", "\u{0}", "\u{1}", "\u{1f}", "\u{7f}", "\\u0041", "{}[],:",
];

fn random_string(rng: &mut Rng) -> String {
    (0..rng.below(12)).map(|_| *rng.pick(PIECES)).collect()
}

fn random_number(rng: &mut Rng) -> f64 {
    match rng.below(3) {
        0 => rng.below(2001) as f64 - 1000.0,
        1 => (rng.below(2001) as f64 - 1000.0) / 8.0,
        // Any finite double: Display prints the shortest text that
        // parses back to the same bits.
        _ => Some(f64::from_bits(rng.below(u64::MAX)))
            .filter(|n| n.is_finite())
            .unwrap_or(0.5),
    }
}

fn random_value(rng: &mut Rng, depth: u32) -> Json {
    let kinds = if depth >= 4 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        4 => Json::Arr(
            (0..rng.below(5))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// `s` as a JSON string literal, each character written raw, as a
/// short escape or as a `\u` escape, chosen at random.
fn encode_variously(rng: &mut Rng, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            _ => None,
        };
        match (rng.below(3), short) {
            (0, _) if c != '"' && c != '\\' => out.push(c),
            (1, Some(escape)) => out.push_str(escape),
            _ if (c as u32) < 0x1_0000 && rng.below(2) == 0 => {
                write!(out, "\\u{:04x}", c as u32).expect("String write")
            }
            _ if (c as u32) < 0x1_0000 => write!(out, "\\u{:04X}", c as u32).expect("String write"),
            // Outside the BMP: a surrogate pair, in either case.
            _ => {
                let mut units = [0; 2];
                for unit in c.encode_utf16(&mut units) {
                    if rng.below(2) == 0 {
                        write!(out, "\\u{unit:04x}").expect("String write");
                    } else {
                        write!(out, "\\u{unit:04X}").expect("String write");
                    }
                }
            }
        }
    }
    out.push('"');
    out
}

/// Two real submit bodies: the profile job `algoprof submit profile`
/// sends for the list sort at n = 130, and the analyze job of a small
/// recording, whose trace travels as one long hex string.
fn real_submit_bodies() -> [String; 2] {
    let source = include_str!("../../../examples/sized_insertion_sort.jay");
    let profile = JobSpec::Profile {
        program: "examples/sized_insertion_sort.jay".into(),
        source: source.into(),
        input: vec![130],
        options: AlgoProfOptions::default(),
    };
    let small = "class Main { static int main() {
        Node head = null;
        for (int i = 0; i < 3; i = i + 1) { Node n = new Node(); n.next = head; head = n; }
        return 0;
    } } class Node { Node next; }";
    let analyze = JobSpec::Analyze {
        trace: record_source_with(small, &Default::default(), &[]).expect("records"),
        options: AlgoProfOptions::default(),
    };
    [profile, analyze].map(|spec| job_to_json(&spec).to_string_compact())
}

#[test]
fn random_documents_round_trip() {
    let mut rng = Rng::new(27);
    for case in 0..3000 {
        let doc = random_value(&mut rng, 0);
        let text = doc.to_string_compact();
        let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(back, doc, "case {case}: {text}");
        assert_eq!(back.to_string_compact(), text, "case {case}");
    }
}

#[test]
fn every_way_of_writing_a_string_parses_back() {
    let mut rng = Rng::new(28);
    for case in 0..5000 {
        let s = random_string(&mut rng);
        let literal = encode_variously(&mut rng, &s);
        let doc = format!("[{literal},{literal}]");
        let expected = Json::Arr(vec![Json::Str(s.clone()), Json::Str(s)]);
        assert_eq!(parse(&doc), Ok(expected), "case {case}: {doc}");
    }
}

#[test]
fn every_prefix_of_a_submit_body_is_an_error() {
    for body in real_submit_bodies() {
        let value = parse(&body).expect("the whole body parses");
        assert_eq!(value.to_string_compact(), body);
        job_from_json(&value).expect("the whole body is a job");
        for cut in (0..body.len()).filter(|&cut| body.is_char_boundary(cut)) {
            assert!(parse(&body[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
    }
}

#[test]
fn single_byte_corruptions_of_a_submit_body_never_panic() {
    let mut outcomes = [0usize; 3]; // [job, not a job, not JSON]
    for body in real_submit_bodies().map(String::into_bytes) {
        for pos in 0..body.len() {
            let flips = [0x01u8, 0x80, 0xff].map(|mask| body[pos] ^ mask);
            for byte in flips.into_iter().chain(*b"\"\\[{u\x00") {
                let mut bad = body.clone();
                bad[pos] = byte;
                let text = String::from_utf8_lossy(&bad);
                match parse(&text) {
                    Ok(value) => {
                        // Whatever parses serializes back to a document that
                        // parses to the same value.
                        let again = value.to_string_compact();
                        assert_eq!(parse(&again).as_ref(), Ok(&value), "byte {pos}");
                        match job_from_json(&value) {
                            Ok(_) => outcomes[0] += 1,
                            Err(_) => outcomes[1] += 1,
                        }
                    }
                    Err(_) => outcomes[2] += 1,
                }
            }
        }
    }
    assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
}
