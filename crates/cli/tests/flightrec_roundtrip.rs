//! Flight-recorder round-trip properties, driven through the real CLI:
//! `serve --flightrec` captures a run, `replay` re-executes it through
//! the full solver stack and must find every frame bit-identical —
//! across schemes, thread counts, and demand densities, with the
//! ledger and ratio tracker engaged. Perturbed captures must produce a
//! structured first-divergence diff (never a panic), ring-wrapped
//! captures a structured refusal, and an enabled recorder must not
//! change a single decision.

use std::fs;
use std::path::{Path, PathBuf};

use jocal_cli::{execute, parse_args};

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Runs a CLI invocation, returning captured stdout (and the error, if any).
fn run(args: &[&str]) -> (String, Result<(), String>) {
    let parsed = parse_args(&strings(args)).expect("args parse");
    let mut buf = Vec::new();
    let result = execute(&parsed, &mut buf).map_err(|e| e.to_string());
    (String::from_utf8(buf).expect("utf8 stdout"), result)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jocal-flightrec-rt-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The one on-disk frame segment of a small capture (few frames never
/// rotate past segment zero).
fn first_segment(capture: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(capture)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("frames-"))
        })
        .collect();
    segs.sort();
    assert!(!segs.is_empty(), "capture has no frame segments");
    segs.remove(0)
}

#[test]
fn captures_replay_bit_identical_across_schemes_threads_and_densities() {
    let dir = temp_dir("grid");
    for scheme in ["rhc", "afhc", "chc"] {
        for threads in ["1", "4"] {
            for density in ["0.35", "1.0"] {
                let tag = format!("{scheme}-t{threads}-d{}", density.replace('.', "_"));
                let capture = dir.join(&tag);
                let ledger = dir.join(format!("{tag}.ledger.jsonl"));
                let (_, rec) = run(&[
                    "serve",
                    "--scheme",
                    scheme,
                    "--slots",
                    "5",
                    "--window",
                    "2",
                    "--seed",
                    "11",
                    "--catalog",
                    "6",
                    "--density",
                    density,
                    "--threads",
                    threads,
                    "--ratio",
                    "2",
                    "--ledger-out",
                    ledger.to_str().unwrap(),
                    "--flightrec",
                    capture.to_str().unwrap(),
                ]);
                rec.unwrap_or_else(|e| panic!("record {tag}: {e}"));

                // Replay with the *opposite* thread count: captured
                // decisions are thread-count-invariant by construction.
                let other = if threads == "1" { "4" } else { "1" };
                let (text, rep) = run(&["replay", capture.to_str().unwrap(), "--threads", other]);
                rep.unwrap_or_else(|e| panic!("replay {tag}: {e}"));
                assert!(
                    text.contains("replay verified: 5 frames bit-identical"),
                    "{tag}: unexpected replay report:\n{text}"
                );
                // Ratio tracker state is part of every compared frame;
                // confirm the capture actually carries it.
                let frames = fs::read_to_string(first_segment(&capture)).unwrap();
                assert!(
                    frames.contains("\"ratio\":{\"blocks\":"),
                    "{tag}: capture frames carry no ratio state"
                );
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// A sparse CHC capture (K = 200 at 2% density, demand ×33, w = 4,
/// ratio tracker on) committed under `tests/fixtures/`, recorded by an
/// earlier build: the current solver stack must reproduce every frame
/// and the certified ratio bit for bit.
#[test]
fn committed_capture_replays_bit_identical() {
    let capture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/chc-k200-sparse");
    let (text, rep) = run(&["replay", capture.to_str().unwrap()]);
    rep.unwrap_or_else(|e| panic!("committed capture diverged: {e}\n{text}"));
    assert!(
        text.contains("replay verified: 24 frames bit-identical (policy CHC(r=3), slots 0..=23)"),
        "got:\n{text}"
    );
    assert!(
        text.contains("empirical ratio    2.3688 over 3 blocks (replayed identically)"),
        "got:\n{text}"
    );
}

#[test]
fn perturbed_capture_yields_structured_divergence_not_panic() {
    let dir = temp_dir("perturb");
    let capture = dir.join("cap");
    let (_, rec) = run(&[
        "serve",
        "--scheme",
        "chc",
        "--slots",
        "5",
        "--window",
        "2",
        "--seed",
        "11",
        "--catalog",
        "6",
        "--density",
        "0.4",
        "--flightrec",
        capture.to_str().unwrap(),
    ]);
    rec.unwrap();

    // Flip the low mantissa nibble of the first recorded demand entry
    // in the final frame: a one-ULP change in one arrival rate.
    let seg = first_segment(&capture);
    let mut lines: Vec<String> = fs::read_to_string(&seg)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    let last = lines.last_mut().unwrap();
    let at = last
        .find("\"lambda\":\"")
        .expect("final frame has a demand entry")
        + "\"lambda\":\"".len();
    let hex_end = at + 16;
    let old = last.as_bytes()[hex_end - 1] as char;
    let new = if old == '0' { '1' } else { '0' };
    last.replace_range(hex_end - 1..hex_end, &new.to_string());
    fs::write(&seg, lines.join("\n") + "\n").unwrap();

    let (_, rep) = run(&["replay", capture.to_str().unwrap()]);
    let err = rep.expect_err("one-ULP demand perturbation must diverge");
    assert!(
        err.contains("DIVERGED") && err.contains("slot"),
        "divergence must name the first differing slot and field, got: {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_capture_verifies_its_provable_prefix() {
    let dir = temp_dir("interrupted");
    let capture = dir.join("cap");
    let (_, rec) = run(&[
        "serve",
        "--scheme",
        "rhc",
        "--slots",
        "6",
        "--window",
        "3",
        "--seed",
        "5",
        "--catalog",
        "6",
        "--density",
        "0.5",
        "--flightrec",
        capture.to_str().unwrap(),
    ]);
    rec.unwrap();

    // Drop the final frame, as if the run died mid-stream: the last
    // window-1 surviving decisions looked ahead at demand that is now
    // missing, so only the prefix before them is verifiable.
    let seg = first_segment(&capture);
    let lines: Vec<String> = fs::read_to_string(&seg)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    fs::write(&seg, lines[..lines.len() - 1].join("\n") + "\n").unwrap();

    let (text, rep) = run(&["replay", capture.to_str().unwrap()]);
    rep.unwrap();
    assert!(
        text.contains("replay verified: 3 frames bit-identical"),
        "got:\n{text}"
    );
    assert!(text.contains("note: interrupted capture"), "got:\n{text}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn ring_wrapped_capture_is_refused_with_guidance() {
    let dir = temp_dir("wrap");
    let capture = dir.join("cap");
    let (_, rec) = run(&[
        "serve",
        "--scheme",
        "rhc",
        "--slots",
        "8",
        "--window",
        "2",
        "--seed",
        "5",
        "--catalog",
        "6",
        "--density",
        "0.5",
        "--flightrec",
        capture.to_str().unwrap(),
        "--flightrec-capacity",
        "4",
    ]);
    rec.unwrap();

    let (_, rep) = run(&["replay", capture.to_str().unwrap()]);
    let err = rep.expect_err("wrapped ring cannot replay from slot 0");
    assert!(
        err.contains("ring wrapped") && err.contains("--flightrec-capacity"),
        "got: {err}"
    );

    // The wrapped capture is still inspectable.
    let (text, ins) = run(&["inspect", capture.to_str().unwrap()]);
    ins.unwrap();
    assert!(text.contains("ring wrapped"), "got:\n{text}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recording_changes_no_decision() {
    let dir = temp_dir("parity");
    let capture = dir.join("cap");
    let base = &[
        "serve",
        "--scheme",
        "chc",
        "--slots",
        "6",
        "--window",
        "3",
        "--seed",
        "23",
        "--catalog",
        "8",
        "--density",
        "0.6",
        "--ratio",
        "2",
    ];
    let (plain, r1) = run(base);
    let mut with_rec: Vec<&str> = base.to_vec();
    let cap = capture.to_str().unwrap().to_string();
    with_rec.extend_from_slice(&["--flightrec", &cap]);
    let (recorded, r2) = run(&with_rec);
    r1.unwrap();
    r2.unwrap();

    let stable = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| {
                [
                    "slots served",
                    "requests",
                    "hit ratio",
                    "total cost",
                    "repair activations",
                ]
                .iter()
                .any(|k| l.starts_with(k))
            })
            .map(String::from)
            .collect()
    };
    let (p, r) = (stable(&plain), stable(&recorded));
    assert_eq!(p.len(), 5, "summary lines missing:\n{plain}");
    assert_eq!(p, r, "recorder-on run diverged from recorder-off run");

    // And the capture it produced replays clean.
    let (text, rep) = run(&["replay", capture.to_str().unwrap()]);
    rep.unwrap();
    assert!(
        text.contains("replay verified: 6 frames bit-identical"),
        "got:\n{text}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_capture_replays_each_cell_bit_identical() {
    let dir = temp_dir("cluster");
    let capture = dir.join("cap");
    let (_, rec) = run(&[
        "serve",
        "--scheme",
        "rhc",
        "--slots",
        "4",
        "--window",
        "2",
        "--seed",
        "11",
        "--catalog",
        "6",
        "--density",
        "0.5",
        "--cells",
        "2",
        "--flightrec",
        capture.to_str().unwrap(),
    ]);
    rec.unwrap();

    for cell in 0..2 {
        let cell_dir = capture.join(format!("cell{cell}"));
        let (text, rep) = run(&["replay", cell_dir.to_str().unwrap()]);
        rep.unwrap_or_else(|e| panic!("cell {cell}: {e}"));
        assert!(
            text.contains("replay verified: 4 frames bit-identical"),
            "cell {cell}: got:\n{text}"
        );
        let (text, ins) = run(&["inspect", cell_dir.to_str().unwrap()]);
        ins.unwrap();
        assert!(
            text.contains(&format!("cell           {cell}")),
            "got:\n{text}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn parses_flightrec_flags_and_capture_positional() {
    let args = parse_args(&strings(&[
        "serve",
        "--slots",
        "4",
        "--flightrec",
        "/tmp/cap",
        "--flightrec-capacity",
        "128",
    ]))
    .unwrap();
    assert_eq!(args.flightrec.as_deref(), Some(Path::new("/tmp/cap")));
    assert_eq!(args.flightrec_capacity, 128);

    let args = parse_args(&strings(&["replay", "some/capture", "--threads", "2"])).unwrap();
    assert_eq!(args.command, "replay");
    assert_eq!(args.capture.as_deref(), Some(Path::new("some/capture")));

    let args = parse_args(&strings(&["gateway", "--slots", "2", "--debug-endpoints"])).unwrap();
    assert!(args.debug_endpoints);

    // A capture directory is mandatory for replay and inspect.
    let args = parse_args(&strings(&["replay"])).unwrap();
    let mut buf = Vec::new();
    assert!(execute(&args, &mut buf).is_err());
    let args = parse_args(&strings(&["inspect"])).unwrap();
    assert!(execute(&args, &mut buf).is_err());
}
