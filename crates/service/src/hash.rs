//! Content addressing for mapping instances.
//!
//! A job is identified by a canonical hash of the `(design, board, config)`
//! triple: two textually different submissions of the same instance — or the
//! same instance resubmitted later — produce the same [`InstanceKey`] and
//! therefore hit the same [`crate::cache::SolutionCache`] slot.
//!
//! The canonical form is the compact JSON rendering of each component
//! (object keys are emitted in struct-declaration order by the in-tree
//! `serde` stand-in, so the rendering is deterministic), and the digest is a
//! 128-bit FNV-1a, chosen over `std`'s `DefaultHasher` because its output
//! is specified and stable across processes and Rust versions — a cache key
//! that silently changed between builds would defeat any future persistent
//! cache.

use serde::{JsonWriter, Serialize};

/// 128-bit content hash identifying one `(design, board, config)` instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceKey(pub u128);

impl InstanceKey {
    /// Hex rendering used on the wire and in log lines.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the [`InstanceKey::to_hex`] rendering back.
    ///
    /// Accepts exactly the 32-hex-digit form `to_hex` produces (either
    /// letter case), and nothing else: no sign, no `0x` prefix, no
    /// whitespace, no short or long spellings. A key that arrives over
    /// the wire or out of a log line either round-trips bit-exactly or
    /// is rejected — a lenient parse that "fixed up" a truncated key
    /// would silently alias distinct instances.
    pub fn from_hex(s: &str) -> Option<InstanceKey> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(InstanceKey)
    }
}

impl std::fmt::Display for InstanceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a over a byte stream.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128(FNV_OFFSET)
    }
}

impl Fnv128 {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(&self) -> u128 {
        self.0
    }
}

/// Canonical content hash of an instance triple.
///
/// Components are length-delimited before hashing so `("ab", "c")` and
/// `("a", "bc")` cannot collide by concatenation.
///
/// Each component is rendered with the hashing writer
/// ([`JsonWriter::hashing`]): `-0.0` hashes like `0.0`, and every NaN bit
/// pattern hashes alike, so semantically identical instances that differ
/// only in such float spellings land on the same cache slot.
pub fn instance_key<D: Serialize, B: Serialize, C: Serialize>(
    design: &D,
    board: &B,
    config: &C,
) -> InstanceKey {
    let mut h = Fnv128::new();
    let mut out = JsonWriter::hashing();
    for part in [design as &dyn Serialize, board, config] {
        hash_part(&mut h, &mut out, part);
    }
    InstanceKey(h.finish())
}

/// Coarser "instance family" hash: the design and config hash exactly as
/// in [`instance_key`], but every *numeric* leaf of the board's canonical
/// JSON tree is masked out (see [`mask_numbers`]) before hashing. Two
/// instances that share a design and config but run against boards
/// differing only in numeric constants (bank capacities, costs, counts)
/// land in the same family.
///
/// This is the key of the persistent warm-start hint store
/// ([`crate::persist`]): an optimal assignment found for one family
/// member is a strong incumbent seed for the next, even though their
/// [`instance_key`]s differ. A domain-separation tag is folded in first
/// so a family key can never collide with an instance key derived from
/// the same bytes.
pub fn family_key<D: Serialize, B: Serialize, C: Serialize>(
    design: &D,
    board: &B,
    config: &C,
) -> InstanceKey {
    let mut h = Fnv128::new();
    h.update(b"gmm-family/v1");
    let mut masked_board = board.to_value();
    mask_numbers(&mut masked_board);
    let mut out = JsonWriter::hashing();
    for part in [design as &dyn Serialize, &masked_board, config] {
        hash_part(&mut h, &mut out, part);
    }
    InstanceKey(h.finish())
}

/// Fold one length-delimited component into `h`, rendered through `out`
/// (a hashing writer whose buffer each component reuses).
fn hash_part(h: &mut Fnv128, out: &mut JsonWriter, part: &dyn Serialize) {
    out.clear();
    part.write_json(out);
    h.update(&(out.as_str().len() as u64).to_le_bytes());
    h.update(out.as_str().as_bytes());
}

/// Replace every numeric leaf (`Int`, `UInt`, `Float`) in the tree with
/// the fixed token `"#"`, in place. The tree's *shape* — object keys,
/// array lengths, string and bool leaves — is preserved, so two boards
/// with the same structure but different constants render identically.
/// Every float spelling is masked alike, so `-0.0`, `0.0`, and any NaN
/// in a board constant cannot split a family.
pub fn mask_numbers(v: &mut serde::Value) {
    match v {
        serde::Value::Int(_) | serde::Value::UInt(_) | serde::Value::Float(_) => {
            *v = serde::Value::Str("#".to_string());
        }
        serde::Value::Array(items) => items.iter_mut().for_each(mask_numbers),
        serde::Value::Object(pairs) => pairs.iter_mut().for_each(|(_, v)| mask_numbers(v)),
        _ => {}
    }
}

/// The canonical (compact, declaration-ordered) JSON rendering hashing and
/// byte-identity checks are defined over. Cached payloads are rendered
/// here, with no float normalization, so their bytes are exactly what the
/// solver produced.
pub fn canonical_json<T: Serialize>(value: &T) -> String {
    let mut out = JsonWriter::new();
    value.write_json(&mut out);
    out.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_deterministic_and_sensitive() {
        let a = instance_key(&"design", &"board", &1u32);
        let b = instance_key(&"design", &"board", &1u32);
        let c = instance_key(&"design", &"board", &2u32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn length_delimiting_prevents_concat_collisions() {
        let a = instance_key(&"ab", &"c", &0u8);
        let b = instance_key(&"a", &"bc", &0u8);
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trips() {
        let k = instance_key(&"x", &"y", &"z");
        assert_eq!(InstanceKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(k.to_hex().len(), 32);
        // Small keys render zero-padded and still round-trip.
        let small = InstanceKey(7);
        assert_eq!(small.to_hex(), "00000000000000000000000000000007");
        assert_eq!(InstanceKey::from_hex(&small.to_hex()), Some(small));
        // Extremes round-trip too.
        for k in [InstanceKey(0), InstanceKey(u128::MAX)] {
            assert_eq!(InstanceKey::from_hex(&k.to_hex()), Some(k));
        }
    }

    #[test]
    fn from_hex_rejects_everything_but_the_canonical_form() {
        let hex = instance_key(&"x", &"y", &"z").to_hex();
        // Wrong lengths: short, long, empty.
        assert_eq!(InstanceKey::from_hex(&hex[1..]), None);
        assert_eq!(InstanceKey::from_hex(&format!("{hex}0")), None);
        assert_eq!(InstanceKey::from_hex(""), None);
        // Signs and prefixes (u128::from_str_radix would accept `+`).
        assert_eq!(InstanceKey::from_hex(&format!("+{}", &hex[1..])), None);
        assert_eq!(InstanceKey::from_hex(&format!("0x{}", &hex[2..])), None);
        // Non-hex garbage of the right length.
        assert_eq!(InstanceKey::from_hex(&"g".repeat(32)), None);
        assert_eq!(InstanceKey::from_hex(&format!(" {}", &hex[1..])), None);
        // Either letter case of a valid rendering is fine.
        assert_eq!(
            InstanceKey::from_hex(&hex.to_uppercase()),
            InstanceKey::from_hex(&hex)
        );
    }

    #[test]
    fn family_key_masks_board_constants_only() {
        // Same design/config, boards differing only in numbers: distinct
        // instances, same family.
        let a = (vec![("cap", 16u32), ("cost", 3u32)],);
        let b = (vec![("cap", 64u32), ("cost", 9u32)],);
        assert_ne!(instance_key(&"d", &a, &"c"), instance_key(&"d", &b, &"c"));
        assert_eq!(family_key(&"d", &a, &"c"), family_key(&"d", &b, &"c"));
        // Board *shape* changes (different key) still split the family.
        let c = (vec![("depth", 16u32), ("cost", 3u32)],);
        assert_ne!(family_key(&"d", &a, &"c"), family_key(&"d", &c, &"c"));
        // Design and config stay exact: changing either splits the family.
        assert_ne!(family_key(&"d", &a, &"c"), family_key(&"e", &a, &"c"));
        assert_ne!(family_key(&"d", &a, &"c"), family_key(&"d", &a, &"k"));
        // Domain separation: a family key is never the instance key.
        assert_ne!(family_key(&"d", &a, &"c"), instance_key(&"d", &a, &"c"));
    }

    #[test]
    fn family_key_normalization_interacts_with_the_mask() {
        // Board constants are masked, so any float spelling — -0.0, 0.0,
        // any NaN payload — lands in the same family.
        let f = |x: f64| family_key(&"d", &vec![("w", x)], &"c");
        assert_eq!(f(0.0), f(-0.0));
        assert_eq!(f(0.0), f(f64::NAN));
        assert_eq!(f(0.0), f(f64::from_bits(0x7ff8_0000_dead_beef)));
        assert_eq!(f(0.0), f(123.5), "numeric value must not matter at all");
        // Config floats are NOT masked — they normalize exactly like the
        // instance key: -0.0 folds onto 0.0, NaNs collapse, but distinct
        // real values stay distinct families.
        let g = |x: f64| family_key(&"d", &"b", &x);
        assert_eq!(g(0.0), g(-0.0));
        assert_eq!(g(f64::NAN), g(-f64::NAN));
        assert_ne!(g(0.0), g(1.0));
    }

    #[test]
    fn mask_is_shape_sensitive_not_value_sensitive() {
        let mut a = serde::Value::Array(vec![
            serde::Value::Int(-3),
            serde::Value::UInt(9),
            serde::Value::Float(2.5),
            serde::Value::Str("keep".into()),
            serde::Value::Bool(true),
        ]);
        mask_numbers(&mut a);
        assert_eq!(canonical_json(&a), "[\"#\",\"#\",\"#\",\"keep\",true]");
    }

    #[test]
    fn signed_zero_does_not_split_the_cache_slot() {
        // -0.0 == 0.0, so instances differing only in the zero's sign are
        // semantically identical and must share a key — at top level and
        // nested inside arrays/objects.
        let a = instance_key(&"d", &"b", &0.0f64);
        let b = instance_key(&"d", &"b", &-0.0f64);
        assert_eq!(a, b, "-0.0 and 0.0 must hash identically");

        let nested_pos = instance_key(&vec![1.0f64, 0.0], &"b", &"c");
        let nested_neg = instance_key(&vec![1.0f64, -0.0], &"b", &"c");
        assert_eq!(nested_pos, nested_neg, "nested -0.0 must also normalize");
    }

    #[test]
    fn every_nan_spelling_hashes_alike() {
        // A NaN leaking from a config must produce one stable key no
        // matter its sign or payload bits.
        let quiet = instance_key(&"d", &"b", &f64::NAN);
        let negative = instance_key(&"d", &"b", &(-f64::NAN));
        let payload = instance_key(&"d", &"b", &f64::from_bits(0x7ff8_0000_dead_beef));
        assert_eq!(quiet, negative);
        assert_eq!(quiet, payload);
        // ...and it is still a *different* instance than a real number.
        assert_ne!(quiet, instance_key(&"d", &"b", &0.0f64));
    }

    #[test]
    fn table3_instance_keys_are_pinned() {
        // Persisted `cache.log` records and family hints are found by
        // these keys, so a renderer change that moved a single byte of a
        // real instance's canonical JSON would orphan every stored entry.
        let (design, board, _) = gmm_workloads::table3_instance(2);
        let config = crate::queue::JobConfig::default();
        assert_eq!(
            instance_key(&design, &board, &config).to_hex(),
            "a76d02c9f612614dcf882315ec9d072e"
        );
        assert_eq!(
            family_key(&design, &board, &config).to_hex(),
            "10176145ace8050c2415055db698e60f"
        );
    }

    #[test]
    fn normalization_does_not_leak_into_payload_rendering() {
        // Only the key derivation normalizes; canonical_json (the payload
        // contract) must keep rendering exactly what it is given.
        assert_eq!(canonical_json(&-0.0f64), "-0.0");
        assert_eq!(canonical_json(&0.0f64), "0.0");
    }
}
