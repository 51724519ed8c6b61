//! The manifest → expand → run → kill → resume → verify round trip —
//! the contract the CI sweep-smoke job exercises end to end, pinned
//! here at test scale.

use std::path::PathBuf;

use ppfts_sweep::{expand, load_ledger, run_sweep, summarize, verify};

const MANIFEST: &str = r#"{
    "name": "roundtrip",
    "seeds": 3,
    "budget": 400000,
    "grids": [
        {"family": "sid", "topology": ["ring", "star"], "n": [16]},
        {"family": "sid_pairing", "n": [8]}
    ]
}"#;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppfts_sweep_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn capped_sweep_resumes_to_a_complete_duplicate_free_ledger() {
    let manifest = expand(MANIFEST).unwrap();
    assert_eq!(manifest.jobs.len(), 9);
    let out = scratch("resume.jsonl");
    let _ = std::fs::remove_file(&out);

    // Leg 1: a capped invocation simulates a mid-sweep kill after 4 jobs.
    let first = run_sweep(&manifest, &out, 2, Some(4), None).unwrap();
    assert_eq!((first.ran, first.skipped, first.failed), (4, 0, 0));
    assert_eq!(first.remaining, 5);
    let mid = verify(&manifest, &out).unwrap();
    assert!(!mid.is_complete());
    assert_eq!(mid.recorded, 4);
    assert_eq!(mid.missing.len(), 5);

    // Leg 2: rerunning with the same arguments picks up the remainder
    // and only the remainder.
    let second = run_sweep(&manifest, &out, 2, None, None).unwrap();
    assert_eq!((second.ran, second.skipped, second.failed), (5, 4, 0));
    assert_eq!(second.remaining, 0);

    // The union is complete and duplicate-free.
    let done = verify(&manifest, &out).unwrap();
    assert!(done.is_complete(), "verify: {done:?}");
    assert_eq!(done.recorded, 9);

    // A third invocation is a no-op.
    let third = run_sweep(&manifest, &out, 2, None, None).unwrap();
    assert_eq!((third.ran, third.skipped), (0, 9));

    // And the resumed ledger is bit-identical to a straight-through
    // sweep (job results are deterministic in the job): compare as
    // id-sorted multisets since completion order differs.
    let straight = scratch("straight.jsonl");
    let _ = std::fs::remove_file(&straight);
    run_sweep(&manifest, &straight, 2, None, None).unwrap();
    let mut resumed = load_ledger(&out).unwrap();
    let mut oneshot = load_ledger(&straight).unwrap();
    resumed.sort_by(|a, b| a.id.cmp(&b.id));
    oneshot.sort_by(|a, b| a.id.cmp(&b.id));
    assert_eq!(resumed, oneshot);

    // Summaries group the 3 seeds of each of the 3 grid cells.
    let summaries = summarize(&resumed);
    assert_eq!(summaries.len(), 3);
    for s in &summaries {
        assert_eq!(s.seeds, 3, "{}", s.group);
        assert_eq!(s.converged, 3, "{}", s.group);
        assert!(s.steps.unwrap().min > 0.0);
    }
}

#[test]
fn progress_watermark_reaches_the_attempted_count() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let manifest = expand(MANIFEST).unwrap();
    let out = scratch("progress.jsonl");
    let _ = std::fs::remove_file(&out);
    let high_water = AtomicUsize::new(0);
    let progress = |done: usize, total: usize| {
        assert_eq!(total, 6);
        high_water.fetch_max(done, Ordering::Relaxed);
    };
    let report = run_sweep(&manifest, &out, 3, Some(6), Some(&progress)).unwrap();
    assert_eq!(report.ran, 6);
    assert_eq!(high_water.load(Ordering::Relaxed), 6);
}

#[test]
fn shipped_manifests_expand_cleanly() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("manifests");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "json") {
            continue;
        }
        let document = std::fs::read_to_string(&path).unwrap();
        let manifest = expand(&document).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            !manifest.jobs.is_empty(),
            "{} expands to zero jobs",
            path.display()
        );
        checked += 1;
    }
    assert!(checked > 0, "no manifests in {}", dir.display());
    // The e13 grid is the paper-scale E13 table: 4 graphs × 2 sizes ×
    // (1 SID + 2 SKnO bounds) × 5 seeds.
    let e13 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("manifests/e13_grid.json");
    let manifest = expand(&std::fs::read_to_string(e13).unwrap()).unwrap();
    assert_eq!(manifest.jobs.len(), 4 * 2 * 3 * 5);
}
