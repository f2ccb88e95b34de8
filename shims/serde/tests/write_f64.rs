//! `json::write_f64` against its definition: for every finite `f64` it
//! must write exactly the bytes `format!("{f:?}")` does (and `null` for
//! the rest). `json::write_str` against the char-by-char escaper it
//! replaced.
//!
//! The tier-1 differential walks every boundary class of the writer (the
//! zeros, subnormal and normal extremes, each power of ten with its two
//! neighbours, the two layout switch points, integers, short and long
//! decimals, exact ties) plus 10^5 random bit patterns. The ignored one
//! runs 10^8 random patterns in release (CI runs it under a timeout):
//!
//! ```sh
//! cargo test --release -p serde --test write_f64 -- --ignored
//! ```

use serde::json::{write_f64, write_str};
use std::fmt::Write as _;

/// SplitMix64: a seeded stream of well-mixed 64-bit patterns.
struct Bits(u64);

impl Iterator for Bits {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Some(z ^ (z >> 31))
    }
}

/// Compares the writer with `{:?}` on every value, both signs; returns
/// how many were checked. Panics naming the first few mismatches.
fn differential(values: impl IntoIterator<Item = f64>) -> u64 {
    let (mut got, mut want) = (String::new(), String::new());
    let mut checked = 0;
    let mut mismatches = Vec::new();
    for x in values {
        for f in [x, -x] {
            got.clear();
            want.clear();
            write_f64(&mut got, f);
            if f.is_finite() {
                let _ = write!(want, "{f:?}");
            } else {
                want.push_str("null");
            }
            checked += 1;
            if got != want && mismatches.len() < 20 {
                mismatches.push(format!("{:#018x}: wrote {got}, {{:?}} {want}", f.to_bits()));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "write_f64 differs from {{:?}}:\n{}",
        mismatches.join("\n")
    );
    checked
}

/// A value and the doubles one ulp either side of it.
fn with_neighbours(f: f64) -> [f64; 3] {
    [
        f64::from_bits(f.to_bits() - 1),
        f,
        f64::from_bits(f.to_bits() + 1),
    ]
}

#[test]
fn extremes_and_non_finite() {
    let largest_subnormal = f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1);
    let n = differential([
        0.0,
        f64::from_bits(1),
        f64::from_bits(2),
        largest_subnormal,
        f64::MIN_POSITIVE,
        f64::from_bits(f64::MIN_POSITIVE.to_bits() + 1),
        f64::MAX,
        f64::from_bits(f64::MAX.to_bits() - 1),
        f64::EPSILON,
        1.0,
        f64::INFINITY,
        f64::NAN,
    ]);
    assert_eq!(n, 24);
    let mut out = String::new();
    write_f64(&mut out, f64::NEG_INFINITY);
    assert_eq!(out, "null");
}

#[test]
fn every_power_of_ten_and_its_neighbours() {
    // 1e-323 is the first power of ten above the smallest subnormal.
    let n =
        differential((-323..=308).flat_map(|k| with_neighbours(format!("1e{k}").parse().unwrap())));
    assert_eq!(n, 2 * 3 * 632);
}

#[test]
fn layout_switch_points() {
    // Plain decimal on [1e-4, 1e16), the `e` form outside it.
    differential(
        with_neighbours(1e-4)
            .into_iter()
            .chain(with_neighbours(1e16)),
    );
    let spell = |f: f64| {
        let mut out = String::new();
        write_f64(&mut out, f);
        out
    };
    assert_eq!(spell(1e-4), "0.0001");
    assert_eq!(
        spell(f64::from_bits(1e-4f64.to_bits() - 1)),
        "9.999999999999999e-5"
    );
    assert_eq!(spell(1e16), "1e16");
    assert_eq!(
        spell(f64::from_bits(1e16f64.to_bits() - 1)),
        "9999999999999998.0"
    );
}

#[test]
fn integers_up_to_two_to_the_53() {
    let small = (0..100_000u64).map(|i| i as f64);
    let powers = (0..=53).flat_map(|p| {
        let base = 1u64 << p;
        (0..4).flat_map(move |d| [base + d, base.saturating_sub(d)])
    });
    let strided = (0..10_000u64).map(|i| (i * 900_719_925_474) as f64);
    differential(
        small
            .chain(powers.map(|i| i as f64))
            .chain(strided)
            .chain([9007199254740993.0]),
    );
}

#[test]
fn decimals_of_one_to_seventeen_significant_digits() {
    let mut bits = Bits(17);
    let mut values = Vec::new();
    for digits in 1..=17u32 {
        let span = 10u64.pow(digits - 1);
        for _ in 0..2_000 {
            let mantissa = span + bits.next().unwrap() % (9 * span);
            let exp = (bits.next().unwrap() % 640) as i32 - 330;
            values.push(format!("{mantissa}e{exp}").parse::<f64>().unwrap());
        }
    }
    // Short decimals the report writes all the time.
    values.extend([0.08, 0.1, 0.2, 0.3, 0.1 + 0.2, 2.5e6, 1e9 / 3.0, 100.0, 0.5]);
    differential(values);
}

#[test]
fn exact_ties_round_up_like_debug() {
    // From 2^50 on a double has two fractional bits, so ...624.25 lies
    // exactly between the two 17-digit candidates ...624.2 and ...624.3.
    let ties = (50..53)
        .flat_map(|p| (0..64).map(move |k| (1u64 << p) as f64 + k as f64 * 0.25))
        .chain((0..64).map(|k| 4503599627370496.0 + k as f64 * 0.5));
    differential(ties);
    let mut out = String::new();
    write_f64(&mut out, (1u64 << 50) as f64 + 0.25);
    assert_eq!(out, "1125899906842624.3");
}

#[test]
fn random_bit_patterns() {
    let n = differential(Bits(11).take(100_000).map(f64::from_bits));
    assert_eq!(n, 200_000);
}

#[test]
#[ignore = "10^8 patterns: run in release (CI does, under a timeout)"]
fn random_bit_patterns_exhaustive() {
    let finite = Bits(29)
        .map(f64::from_bits)
        .filter(|f| f.is_finite())
        .take(100_000_000);
    differential(finite);
}

/// The escaper `write_str` replaced: one char at a time.
fn escaped_char_by_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn write_str_matches_the_char_by_char_escaper() {
    let mut cases: Vec<String> = [
        "",
        "plain",
        "\"",
        "\\",
        "q\"uote b\\ackslash \n\r\t \u{1}\u{1f}\u{7f} é ∞ 🦀",
        "{\"json\":[1,2.5,\"x\"]}\n",
        "é\"∞\\🦀",
    ]
    .map(str::to_string)
    .to_vec();
    // Every ASCII byte, alone and between multi-byte chars.
    cases.extend((0u8..0x80).map(|b| format!("é{}∞", b as char)));
    let mut bits = Bits(3);
    let alphabet: Vec<char> = "ab\"\\\n\t\u{0}\u{1b}é∞🦀 ".chars().collect();
    for _ in 0..2_000 {
        let len = (bits.next().unwrap() % 24) as usize;
        cases.push(
            (0..len)
                .map(|_| alphabet[(bits.next().unwrap() % alphabet.len() as u64) as usize])
                .collect(),
        );
    }
    for s in &cases {
        let mut out = String::new();
        write_str(&mut out, s);
        assert_eq!(out, escaped_char_by_char(s), "{s:?}");
    }
}
