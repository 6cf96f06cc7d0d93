//! Hostile model blobs: a forest, a tree and a stored model, truncated,
//! bit-flipped behind a re-sealed checksum, and forged field by field.
//! Every mutant must decode to a typed error or to a model whose
//! prediction finishes — no panic, no hang, and no allocation beyond what
//! the input's length justifies (a length larger than the bytes left is
//! refused before anything is allocated, so a forged 2^40-node tree is an
//! error rather than an aborted process).
//!
//! The flips are seeded: `MLCS_CHAOS_SEED` replays a run, and the seed in
//! use is printed.

mod common;

use common::{blob_literal, db_with_opposite_models};
use mlcs_core::StoredModel;
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::tree::DecisionTreeClassifier;
use mlcs_ml::{Classifier, Matrix, Model};
use mlcs_pickle::{Pickle, PickleError, Reader, Writer};
use std::time::{Duration, Instant};

/// A `StoredModel` blob written by format version 1 (a decision tree on
/// four points, labels 10/20), kept to prove old blobs are refused.
const VERSION_1_STORED_MODEL: &str = "4d4c504b01000b53746f7265644d6f64656c68021428644d4c504b0100164465636973696f6e54726565436c6173736966696572420002010001ff0100000000000000000202030100000000000000000001020002000000000000f03f000000000000000000020000000000000000000000000000f03f89a3d208ae8029c6";

/// Longest a decode plus a prediction of one mutant may take.
const PATIENCE: Duration = Duration::from_secs(2);

fn seed() -> u64 {
    let seed =
        std::env::var("MLCS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x0B10B);
    println!("model blob mutation seed: {seed} (set MLCS_CHAOS_SEED to replay)");
    seed
}

/// A 64-bit LCG; the high bits are the output.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// Three features, three classes, a little label noise so trees grow.
fn problem() -> (Matrix, Vec<i64>) {
    let mut g = Lcg(7);
    let data = (0..150).map(|_| g.below(40) as f64 / 4.0 - 5.0).collect();
    let y = (0..50).map(|r| [10, 20, 30][(r + g.below(4) / 3) % 3]).collect();
    (Matrix::new(data, 50, 3).unwrap(), y)
}

/// An envelope around `payload` under `class`, with a valid checksum.
fn seal(class: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(&mlcs_pickle::MAGIC);
    w.put_u16(mlcs_pickle::FORMAT_VERSION);
    w.put_str(class);
    w.put_bytes(payload);
    w.put_u32(mlcs_pickle::crc::crc32(payload));
    w.into_bytes()
}

/// The class name and payload of a well-formed envelope, ignoring its
/// checksum (so a flipped payload can be re-sealed).
fn unseal(blob: &[u8]) -> Option<(String, Vec<u8>)> {
    let mut r = Reader::new(blob);
    r.get_raw(6).ok()?;
    let class = r.get_str().ok()?.to_owned();
    let payload = r.get_bytes().ok()?.to_vec();
    Some((class, payload))
}

/// One decoder under test: decodes a blob and, if that succeeds, predicts
/// with the result.
struct Decoder {
    name: &'static str,
    decode: fn(&[u8], &Matrix) -> Result<(), String>,
}

fn decoders() -> [Decoder; 3] {
    [
        Decoder {
            name: "forest",
            decode: |b, x| {
                let m: RandomForestClassifier =
                    mlcs_pickle::unpickle(b).map_err(|e| e.to_string())?;
                m.predict_proba(x).map(drop).map_err(|e| e.to_string())
            },
        },
        Decoder {
            name: "tree",
            decode: |b, x| {
                let m = Model::from_blob(b).map_err(|e| e.to_string())?;
                m.predict_proba(x).map(drop).map_err(|e| e.to_string())
            },
        },
        Decoder {
            name: "stored model",
            decode: |b, x| {
                let m = StoredModel::from_blob(b).map_err(|e| e.to_string())?;
                m.predict(x).map(drop).map_err(|e| e.to_string())
            },
        },
    ]
}

/// Decodes one mutant with its decoder, which must not panic (a panic
/// fails the test) and must finish in time; returns whether it decoded.
fn run(d: &Decoder, blob: &[u8], x: &Matrix, what: &str) -> bool {
    let start = Instant::now();
    let ok = (d.decode)(blob, x).is_ok();
    assert!(start.elapsed() < PATIENCE, "{} {what}: took {:?}", d.name, start.elapsed());
    ok
}

fn blobs() -> [Vec<u8>; 3] {
    let (x, y) = problem();
    let mut forest = RandomForestClassifier::new(4).with_seed(3);
    let mut tree = DecisionTreeClassifier::new().with_seed(3);
    let classes = mlcs_ml::dataset::ClassMap::fit(&y);
    let codes = classes.encode(&y).unwrap();
    forest.fit(&x, &codes, 3).unwrap();
    tree.fit(&x, &codes, 3).unwrap();
    let stored = StoredModel::train(Model::RandomForest(forest.clone()), &x, &y).unwrap();
    [mlcs_pickle::pickle(&forest), mlcs_pickle::pickle(&tree), stored.to_blob()]
}

#[test]
fn truncated_and_flipped_blobs_are_typed_errors() {
    let mut g = Lcg(seed());
    let (x, _) = problem();
    let probe = {
        let mut data = x.as_slice().to_vec();
        data.extend([f64::NAN, f64::INFINITY, -0.0, f64::NEG_INFINITY, 1e300, -1e300]);
        Matrix::new(data, x.rows() + 2, 3).unwrap()
    };
    for (d, blob) in decoders().iter().zip(blobs()) {
        assert!(run(d, &blob, &probe, "intact"), "{} must decode intact", d.name);
        let stride = (blob.len() / 512).max(1);
        for cut in (0..blob.len()).step_by(stride).chain(blob.len() - 8..blob.len()) {
            assert!(
                !run(d, &blob[..cut], &probe, &format!("cut at {cut}")),
                "{} cut {cut}",
                d.name
            );
        }
        let (class, payload) = unseal(&blob).unwrap();
        let mut decoded = 0;
        for _ in 0..400 {
            let mut mutant = payload.clone();
            for _ in 0..1 + g.below(3) {
                let at = g.below(mutant.len());
                mutant[at] ^= 1 << g.below(8);
            }
            let what = format!("flip {:?}", &mutant.iter().zip(&payload).position(|(a, b)| a != b));
            decoded += run(d, &seal(&class, &mutant), &probe, &what) as usize;
        }
        println!(
            "{}: {decoded} of 400 re-sealed flips of {} bytes still decode",
            d.name,
            blob.len()
        );
    }
}

/// Where a tree's node arrays sit in its pickle payload, found from the
/// end: `[.. n][feature; s][threshold; s][child; s][leaf; (n - s) * k]`.
struct Layout {
    n_at: usize,
    feature: usize,
    child: usize,
    leaf: usize,
}

fn layout(tree: &DecisionTreeClassifier, payload_len: usize) -> Layout {
    let (n, k) = (tree.node_count(), tree.n_classes());
    let s = n / 2;
    let leaf = payload_len - (n - s) * k * 8;
    let child = leaf - 4 * s;
    let feature = child - 12 * s;
    let mut varint = Writer::new();
    varint.put_varint(n as u64);
    Layout { n_at: feature - varint.len(), feature, child, leaf }
}

#[test]
fn forged_tree_fields_are_refused() {
    let (x, y) = problem();
    let codes = mlcs_ml::dataset::ClassMap::fit(&y).encode(&y).unwrap();
    let mut tree = DecisionTreeClassifier::new().with_seed(3);
    tree.fit(&x, &codes, 3).unwrap();
    let class = DecisionTreeClassifier::CLASS_NAME;
    let (_, payload) = unseal(&mlcs_pickle::pickle(&tree)).unwrap();
    let at = layout(&tree, payload.len());
    let n = tree.node_count() as u32;
    let put_u32 = |p: &mut Vec<u8>, i: usize, v: u32| p[i..i + 4].copy_from_slice(&v.to_le_bytes());
    let get_u32 = |p: &[u8], i: usize| u32::from_le_bytes(p[i..i + 4].try_into().unwrap());
    let tags = get_u32(&payload, at.child) & 0xC000_0000;

    let mut forgeries: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut p = payload.clone();
    put_u32(&mut p, at.child, tags);
    forgeries.push(("the root's child is the root", p));
    let mut p = payload.clone();
    put_u32(&mut p, at.child + 4, tags | 1);
    forgeries.push(("a child at or before its parent", p));
    let mut p = payload.clone();
    put_u32(&mut p, at.child, tags | (n - 1));
    forgeries.push(("a child past the node count", p));
    let mut p = payload.clone();
    put_u32(&mut p, at.feature, 3);
    forgeries.push(("a feature past n_features", p));
    let mut p = payload.clone();
    put_u32(&mut p, at.child, get_u32(&payload, at.child) ^ 0x8000_0000);
    forgeries.push(("a split tagged as a leaf", p));
    let mut p = payload[..at.leaf + 8].to_vec();
    p.extend_from_slice(&payload[at.leaf + 8 * 4..]);
    forgeries.push(("a leaf table short of its leaves", p));
    for huge in [(1u64 << 40) + 1, u64::MAX] {
        let mut p = payload[..at.n_at].to_vec();
        let mut w = Writer::new();
        w.put_varint(huge);
        p.extend_from_slice(w.as_bytes());
        p.extend_from_slice(&payload[at.feature..]);
        forgeries.push(("a node count larger than the bytes left", p));
    }

    for (what, forged) in forgeries {
        let err =
            mlcs_pickle::unpickle::<DecisionTreeClassifier>(&seal(class, &forged)).expect_err(what);
        assert!(
            matches!(
                err,
                PickleError::Invalid(_)
                    | PickleError::ImplausibleLength { .. }
                    | PickleError::UnexpectedEof { .. }
            ),
            "{what}: {err:?}"
        );
        // The same body inside a stored model, as `predict` would meet it.
        let mut stored = Writer::new();
        mlcs_ml::dataset::ClassMap::fit(&y).pickle_body(&mut stored);
        stored.put_str(class);
        stored.put_raw(&forged);
        let blob = seal(StoredModel::CLASS_NAME, stored.as_bytes());
        assert!(StoredModel::from_blob(&blob).is_err(), "{what} inside a stored model");
    }
}

#[test]
fn version_1_blobs_are_unsupported() {
    let blob = hex(VERSION_1_STORED_MODEL);
    let err = mlcs_pickle::unpickle::<StoredModel>(&blob).unwrap_err();
    assert_eq!(err, PickleError::UnsupportedVersion { found: 1, supported: 2 });
    let err = StoredModel::from_blob(&blob).unwrap_err();
    assert!(err.to_string().contains("version 1 is not supported"), "{err}");
    let db = db_with_opposite_models();
    let err =
        db.query(&format!("SELECT predict(x, y, {}) FROM pts", blob_literal(&blob))).unwrap_err();
    assert!(
        matches!(&err, mlcs_columnar::DbError::Udf { message, .. } if message.contains("version 1")),
        "{err:?}"
    );
}
