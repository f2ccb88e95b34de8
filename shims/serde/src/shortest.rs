//! The shortest round-trip spelling of an `f64`, laid out byte for byte
//! as Rust's `{:?}` lays it out: the one float writer behind
//! [`json::write_f64`](crate::json::write_f64).
//!
//! The digits come from Ryu (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): integer arithmetic only, one 64×128-bit
//! multiply per interval bound against a table of powers of five. Among
//! the decimal strings that parse back to the value it picks the shortest,
//! and among those the one closest to the value. Two details follow
//! `core::fmt` rather than the paper, so the digits are Rust's:
//!
//! * an exact tie between two shortest candidates rounds **up** (the
//!   paper rounds it to even): `1125899906842624.25` is
//!   `1125899906842624.3`;
//! * every power of two, `f64::MIN_POSITIVE` included, gets the narrower
//!   lower gap (the paper widens it back at the smallest normal
//!   exponent, whose predecessor is a subnormal one ulp away).
//!
//! Layout, as `{:?}` has it: plain decimal with at least one fractional
//! digit when `x == 0` or `1e-4 <= |x| < 1e16` (`0.08`,
//! `1000000000000000.0`, `-0.0`); otherwise the shortest `e` form with
//! no `+` and no leading zeros (`9.99e-5`, `1e16`,
//! `1.2345678901234568e17`, `5e-324`).
//!
//! The two 128-bit power-of-five tables are computed at compile time from
//! exact big-integer arithmetic by the `const fn`s at the bottom.

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// Significant bits kept of each power of five (and of each inverse).
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;

/// `floor(2^(pow5bits(q) - 1 + 125) / 5^q) + 1` for `q = 0..=290`: the
/// largest `q` a double reaches is `log10_pow2(969) - 1`.
static POW5_INV_SPLIT: [u128; 291] = pow5_inv_table();

/// `5^i` scaled to exactly 125 significant bits, for `i = 0..=325`: the
/// largest `i` a double reaches is `1076 - (log10_pow5(1076) - 1)`.
static POW5_SPLIT: [u128; 326] = pow5_table();

/// `"00" "01" … "99"`: two digits per lookup.
static DIGIT_PAIRS: [u8; 200] = digit_pairs();

/// Appends `f` (finite) to `out` exactly as `format!("{f:?}")` would.
pub(crate) fn write_finite(out: &mut String, f: f64) {
    debug_assert!(f.is_finite());
    // Sign, at most 17 digits, and "0.000", "." or "e-324" around them.
    // Pre-filled with zeros, so padding costs nothing.
    let mut buf = [b'0'; 32];
    let s = usize::from(f.is_sign_negative());
    if s == 1 {
        buf[0] = b'-';
    }
    let abs = f.abs();
    let len = if abs == 0.0 {
        buf[s + 1] = b'.';
        s + 3
    } else {
        let (mantissa, e10) = shortest(abs.to_bits());
        let n = mantissa.ilog10() as usize + 1;
        // The value is 0.DIGITS × 10^point.
        let point = e10 + n as i32;
        if !(1e-4..1e16).contains(&abs) {
            // d.ddde±x: the digits go one right, then the first moves
            // back in front of the point.
            let mut end = s + 1 + n;
            write_digits(mantissa, &mut buf, end);
            buf[s] = buf[s + 1];
            if n > 1 {
                buf[s + 1] = b'.';
            } else {
                end = s + 1;
            }
            let exp = point - 1;
            buf[end] = b'e';
            end += 1;
            if exp < 0 {
                buf[end] = b'-';
                end += 1;
            }
            let exp = exp.unsigned_abs();
            let width = 1 + usize::from(exp >= 10) + usize::from(exp >= 100);
            write_digits(u64::from(exp), &mut buf, end + width);
            end + width
        } else if point <= 0 {
            // 0.000ddd
            buf[s + 1] = b'.';
            let end = s + 2 + point.unsigned_abs() as usize + n;
            write_digits(mantissa, &mut buf, end);
            end
        } else if (point as usize) < n {
            // ddd.ddd: as above, the integer digits move one left.
            let point = point as usize;
            write_digits(mantissa, &mut buf, s + 1 + n);
            buf.copy_within(s + 1..s + 1 + point, s);
            buf[s + point] = b'.';
            s + 1 + n
        } else {
            // ddd000.0
            write_digits(mantissa, &mut buf, s + n);
            let point = point as usize;
            buf[s + point] = b'.';
            s + point + 2
        }
    };
    out.push_str(std::str::from_utf8(&buf[..len]).expect("the writer emits ASCII only"));
}

/// Writes `v` in decimal into `buf`, ending just before `end`.
#[inline]
fn write_digits(mut v: u64, buf: &mut [u8; 32], end: usize) {
    let mut at = end;
    // Eight digits at a time, as two independent four-digit halves.
    while v >= 100_000_000 {
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        write_pairs(buf, at - 8, low / 10_000);
        write_pairs(buf, at - 4, low % 10_000);
        at -= 8;
    }
    let mut v = v as u32;
    while v >= 100 {
        write_pair(buf, at - 2, v % 100);
        v /= 100;
        at -= 2;
    }
    if v >= 10 {
        write_pair(buf, at - 2, v);
    } else {
        buf[at - 1] = b'0' + v as u8;
    }
}

/// Four digits (`v < 10_000`) at `buf[at..at + 4]`.
#[inline]
fn write_pairs(buf: &mut [u8; 32], at: usize, v: u32) {
    write_pair(buf, at, v / 100);
    write_pair(buf, at + 2, v % 100);
}

/// Two digits (`v < 100`) at `buf[at..at + 2]`.
#[inline]
fn write_pair(buf: &mut [u8; 32], at: usize, v: u32) {
    let pair = 2 * v as usize;
    buf[at] = DIGIT_PAIRS[pair];
    buf[at + 1] = DIGIT_PAIRS[pair + 1];
}

/// `(digits, e10)` with `digits × 10^e10` the shortest decimal that reads
/// back as the positive, finite, nonzero double with these `bits`.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    // The value is m2 × 2^e2; the interval bounds sit at (4·m2 ± gap) ×
    // 2^(e2 - 2), so e2 carries the extra −2 already.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even reading: an even mantissa owns both interval ends.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // At a power of two the predecessor is half as far away as the
    // successor (`core::fmt` applies this at MIN_POSITIVE too).
    let mm_shift = u64::from(ieee_mantissa != 0);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale the three bounds by 10^-e10 (exactly enough digits kept).
    let (mut vr, mut vp, mut vm);
    let e10;
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = -e2 + q as i32 + POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // Below 10^22 a bound can be an exact decimal; only one of the
        // three consecutive integers can be a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let shift = q as i32 - (pow5bits(i) - POW5_BITCOUNT);
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        if q <= 1 {
            // mv has two trailing zero bits, mp one, and mm one iff the
            // gap is symmetric.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while a shorter decimal still fits in (vm, vp]; round
    // the value's own digits by the last one dropped, ties up.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The lower bound is itself a short decimal the interval owns:
        // keep dropping its zeros (rare).
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        // vr == vm is out of bounds unless the bound is owned and exact.
        vr + u64::from(
            (vr == vm && !(accept_bounds && vm_is_trailing_zeros)) || last_removed_digit >= 5,
        )
    } else {
        // Only the last (most significant) digit dropped decides the
        // rounding, so digits may go four at a time, then two, then one:
        // a shorter decimal fits at 10^k only if it fits at every 10^j
        // below, so once four fail, two and one fit at most once each.
        let mut round_up = false;
        while vp / 10_000 > vm / 10_000 {
            round_up = vr % 10_000 >= 5_000;
            (vr, vp, vm) = (vr / 10_000, vp / 10_000, vm / 10_000);
            removed += 4;
        }
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        if vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vm) = (vr / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `(m × mul) >> shift`, for a 55-bit `m` and `shift >= 64`.
#[inline]
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
#[inline]
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
#[inline]
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732923) >> 20
}

/// The bit length of `5^e` (`ceil(log2(5^e))`, and 1 at `e = 0`) for
/// `0 <= e <= 3528`.
#[inline]
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

// ---- compile-time tables ---------------------------------------------

/// Little-endian limbs of a big integer wide enough for `2^TOP`.
const LIMBS: usize = 14;

/// `2^TOP` is divided by successive powers of five for the inverse table;
/// it must exceed the largest `2^j` an entry needs (`j = 798` at
/// `q = 290`).
const TOP: u32 = 880;

type Big = [u64; LIMBS];

const fn bit_len(x: &Big) -> i32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as i32 + 64 - x[i].leading_zeros() as i32;
        }
    }
    0
}

const fn limb(x: &Big, i: usize) -> u64 {
    if i < LIMBS {
        x[i]
    } else {
        0
    }
}

/// The low 128 bits of `x >> shift`.
const fn bits_from(x: &Big, shift: u32) -> u128 {
    let (i, b) = ((shift / 64) as usize, shift % 64);
    let low = (limb(x, i + 1) as u128) << 64 | limb(x, i) as u128;
    if b == 0 {
        low
    } else {
        low >> b | (limb(x, i + 2) as u128) << (128 - b)
    }
}

const fn mul5(x: &mut Big) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let t = x[i] as u128 * 5 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    assert!(carry == 0, "power of five overflowed its limbs");
}

/// `x = floor(x / 5)`.
const fn div5(x: &mut Big) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = rem << 64 | x[i] as u128;
        x[i] = (cur / 5) as u64;
        rem = cur % 5;
    }
}

const fn pow5_table<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    let mut pow = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < N {
        let len = bit_len(&pow);
        assert!(len == pow5bits(i as i32), "pow5bits disagrees with 5^i");
        table[i] = if len >= POW5_BITCOUNT {
            bits_from(&pow, (len - POW5_BITCOUNT) as u32)
        } else {
            bits_from(&pow, 0) << (POW5_BITCOUNT - len)
        };
        mul5(&mut pow);
        i += 1;
    }
    table
}

const fn pow5_inv_table<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    // floor(floor(2^TOP / 5^q) / 2^(TOP - j)) = floor(2^j / 5^q): each
    // entry is a shift of the running quotient.
    let mut quotient = [0; LIMBS];
    quotient[(TOP / 64) as usize] = 1 << (TOP % 64);
    let mut q = 0;
    while q < N {
        let j = pow5bits(q as i32) - 1 + POW5_INV_BITCOUNT;
        assert!(j < TOP as i32, "TOP too small for the inverse table");
        table[q] = bits_from(&quotient, TOP - j as u32) + 1;
        div5(&mut quotient);
        q += 1;
    }
    table
}

const fn digit_pairs() -> [u8; 200] {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spelled(f: f64) -> String {
        let mut out = String::new();
        write_finite(&mut out, f);
        out
    }

    #[test]
    fn tables_match_published_ryu_entries() {
        // d2s_full_table.h, DOUBLE_POW5_INV_SPLIT[1] and
        // DOUBLE_POW5_SPLIT[1], [2] as (low, high) halves.
        let split = |v: u128| (v as u64, (v >> 64) as u64);
        assert_eq!(
            split(POW5_INV_SPLIT[1]),
            (11068046444225730970, 1844674407370955161)
        );
        assert_eq!(split(POW5_SPLIT[1]), (0, 1441151880758558720));
        assert_eq!(split(POW5_SPLIT[2]), (0, 1801439850948198400));
        // The first entry past 2^125: 5^54 truncated.
        assert_eq!(POW5_SPLIT[54], 5u128.pow(54) >> 1);
    }

    #[test]
    fn layout_follows_debug() {
        for (f, want) in [
            (0.08, "0.08"),
            (1e15, "1000000000000000.0"),
            (-0.0, "-0.0"),
            (0.0, "0.0"),
            (9.99e-5, "9.99e-5"),
            (1e-4, "0.0001"),
            (1e16, "1e16"),
            (1.2345678901234568e17, "1.2345678901234568e17"),
            (5e-324, "5e-324"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            ((1u64 << 50) as f64 + 0.25, "1125899906842624.3"),
            (-1.5, "-1.5"),
            (123.0, "123.0"),
        ] {
            assert_eq!(spelled(f), want);
            assert_eq!(format!("{f:?}"), want, "the oracle itself");
        }
    }
}
