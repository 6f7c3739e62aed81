//! Inputs, correctness references and span tracing for the checker's
//! end-to-end benchmark.
//!
//! `run.py` drives two binaries built from this package:
//!
//! * `perfbench-gen` writes one workload's inputs from a seed (the timed
//!   set-up, using the repository's own generators and encoders) and,
//!   separately and untimed, the references its outputs are checked
//!   against;
//! * `perfbench-layers` is the traced run: it times the public function
//!   of every layer from outside, one [`spans::Span`] per call.
//!
//! `perfbench-calib` times [`calib::work`], which `run.py` uses to scale
//! timings to the host's nominal speed.
//!
//! The checker under test only ever sees the files written here.

pub mod calib;
pub mod spans;

use spans::Tracer;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use velodrome_events::{Trace, TraceReadError};
use velodrome_sim::{random_program, run_program, GenConfig, RandomScheduler};

/// The benchmark's workloads, as `--workload` names them.
pub const WORKLOADS: [&str; 3] = ["fanin-vbt", "multiset-json", "corpus-batch"];

/// Span names of the layers, in pipeline order.
pub mod layer {
    /// Producing a trace: `Workload::run` or `fanin_stress_trace`.
    pub const GENERATE: &str = "sim.generate";
    /// Encoding a trace to a file: `Trace::to_json` or `write_vbt`.
    pub const ENCODE: &str = "events.encode";
    /// `read_json_trace` / `read_vbt` on a file, as the CLI opens it.
    pub const DECODE: &str = "events.decode";
    /// `semantics::validate`.
    pub const VALIDATE: &str = "events.validate";
    /// `run_tool(EmptyTool)`: the dispatch floor under every tool.
    pub const DISPATCH: &str = "monitor.dispatch";
    /// `run_tool(AeroDrome)`: the vector-clock screen on its own.
    pub const SCREEN: &str = "vclock.screen";
    /// `run_tool(Velodrome)` with the CLI's default configuration.
    pub const ENGINE: &str = "core.engine";
    /// `run_tool(HybridVelodrome)`: screen first, engine on escalation.
    pub const HYBRID: &str = "core.hybrid";
    /// `velodrome_cli::execute` of `trace FILE` or `check-batch DIR`.
    pub const CLI: &str = "cli.entry";
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark runs;
/// [`Sizes::SMALL`] keeps the package's own tests quick.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Fan-in waves before the seed's offset (80 events per wave).
    pub fanin_waves: u64,
    /// `multiset` model scale for `multiset-json`.
    pub multiset_scale: u32,
    /// Model scale of every corpus trace.
    pub corpus_scale: u32,
    /// Scheduler seeds per model in the corpus.
    pub corpus_seeds: u64,
    /// Small `random_program` traces in the corpus.
    pub random_traces: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        fanin_waves: 50_000,
        multiset_scale: 64,
        corpus_scale: 16,
        corpus_seeds: 16,
        random_traces: 8,
    };
    /// Sizes for tests.
    pub const SMALL: Sizes = Sizes {
        fanin_waves: 40,
        multiset_scale: 1,
        corpus_scale: 1,
        corpus_seeds: 2,
        random_traces: 3,
    };
}

/// What a trace's warnings must satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reference {
    /// Serializable by construction: no warnings at all.
    Serializable,
    /// A model trace: every blamed label is in the model's
    /// `Workload::non_atomic` set.
    Model {
        /// Model name.
        name: String,
        /// Model scale.
        scale: u32,
    },
    /// A small trace whose verdict `events::oracle::check` decides.
    Oracle,
}

/// One generated input file.
#[derive(Debug, Clone)]
pub struct Input {
    /// File name inside the inputs directory.
    pub file: String,
    /// Operations in the trace.
    pub events: usize,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// How its warnings are checked.
    pub reference: Reference,
}

/// The directory inside `dir` that holds the inputs and nothing else,
/// so `check-batch` can take it as is.
pub fn inputs_dir(dir: &Path) -> PathBuf {
    dir.join("inputs")
}

/// A 64-bit mix (SplitMix64), so nearby seeds give unrelated streams.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes `workload`'s inputs for `seed` into `inputs_dir(dir)` (replacing
/// what was there), with one `sim.generate` and one `events.encode` span
/// per trace, and returns them in file-name order.
pub fn generate(
    workload: &str,
    seed: u64,
    sizes: Sizes,
    dir: &Path,
    tracer: &mut Tracer,
) -> std::io::Result<Vec<Input>> {
    let out = inputs_dir(dir);
    if out.exists() {
        std::fs::remove_dir_all(&out)?;
    }
    std::fs::create_dir_all(&out)?;
    let mut inputs = Vec::new();
    let mut emit = |tracer: &mut Tracer, file: String, trace: Trace, reference| {
        let path = out.join(&file);
        let bytes = tracer.span(layer::ENCODE, |_| encode(&trace, &path))?;
        inputs.push(Input {
            file,
            events: trace.len(),
            bytes,
            reference,
        });
        std::io::Result::Ok(())
    };
    match workload {
        "fanin-vbt" => {
            let waves = sizes.fanin_waves + seed % 1024;
            let trace = tracer.span(layer::GENERATE, |_| {
                velodrome_bench::hotpath::fanin_stress_trace(waves, 8, 2)
            });
            emit(tracer, "fanin.vbt".into(), trace, Reference::Serializable)?;
        }
        "multiset-json" => {
            let scale = sizes.multiset_scale;
            let trace = tracer.span(layer::GENERATE, |_| {
                velodrome_workloads::build("multiset", scale)
                    .expect("multiset is a known model")
                    .run(seed)
            });
            let reference = Reference::Model {
                name: "multiset".into(),
                scale,
            };
            emit(tracer, "multiset.json".into(), trace, reference)?;
        }
        "corpus-batch" => {
            let scale = sizes.corpus_scale;
            for name in velodrome_workloads::NAMES {
                let model = tracer.span(layer::GENERATE, |_| {
                    velodrome_workloads::build(name, scale).expect("known model")
                });
                for j in 0..sizes.corpus_seeds {
                    let run_seed = mix(seed.wrapping_mul(64).wrapping_add(j));
                    let trace = tracer.span(layer::GENERATE, |_| model.run(run_seed));
                    let reference = Reference::Model {
                        name: name.into(),
                        scale,
                    };
                    emit(tracer, format!("{name}-{j:02}.vbt"), trace, reference)?;
                }
            }
            let mut attempt = mix(seed ^ 0x5EED);
            for j in 0..sizes.random_traces {
                let trace = tracer.span(layer::GENERATE, |_| loop {
                    attempt = mix(attempt);
                    let program = random_program(&GenConfig::default(), attempt);
                    let result = run_program(&program, RandomScheduler::new(attempt >> 1));
                    if !result.deadlocked {
                        break result.trace;
                    }
                });
                emit(
                    tracer,
                    format!("random-{j:02}.vbt"),
                    trace,
                    Reference::Oracle,
                )?;
            }
        }
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload `{other}` (want one of {WORKLOADS:?})"),
            ))
        }
    }
    inputs.sort_by(|a, b| a.file.cmp(&b.file));
    Ok(inputs)
}

/// Encodes `trace` as `record` (JSON) or `convert --to=vbt` (VBT) would,
/// chosen by the file extension, and returns the file's size.
fn encode(trace: &Trace, path: &Path) -> std::io::Result<u64> {
    if path.extension().is_some_and(|e| e == "json") {
        std::fs::write(path, trace.to_json())?;
    } else {
        let mut w = BufWriter::new(File::create(path)?);
        velodrome_events::write_vbt(&mut w, trace)?;
        w.flush()?;
    }
    Ok(std::fs::metadata(path)?.len())
}

/// Reads a trace file the way the CLI does: sniff the first four bytes for
/// the VBT magic, then stream the whole file through the chosen decoder.
pub fn decode_file(path: &Path) -> Result<Trace, TraceReadError> {
    let mut file = File::open(path)?;
    let mut head = [0u8; 4];
    let mut got = 0;
    while got < head.len() {
        match file.read(&mut head[got..])? {
            0 => break,
            n => got += n,
        }
    }
    let src = head[..got].chain(file);
    if velodrome_events::is_vbt(&head[..got]) {
        velodrome_events::read_vbt(src)
    } else {
        velodrome_events::read_json_trace(src)
    }
}

/// Writes `manifest.tsv` in `dir`: one `file, events, bytes, reference`
/// line per input.
pub fn write_manifest(dir: &Path, inputs: &[Input]) -> std::io::Result<()> {
    let mut text = String::new();
    for i in inputs {
        let reference = match &i.reference {
            Reference::Serializable => "serializable".to_owned(),
            Reference::Model { name, scale } => format!("model:{name}:{scale}"),
            Reference::Oracle => "oracle".to_owned(),
        };
        let _ = writeln!(text, "{}\t{}\t{}\t{reference}", i.file, i.events, i.bytes);
    }
    std::fs::write(dir.join("manifest.tsv"), text)
}

/// Reads the manifest [`write_manifest`] wrote.
pub fn read_manifest(dir: &Path) -> std::io::Result<Vec<Input>> {
    let bad = |line: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad manifest line: {line}"),
        )
    };
    let text = std::fs::read_to_string(dir.join("manifest.tsv"))?;
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let [file, events, bytes, reference] = f[..] else {
                return Err(bad(line));
            };
            let reference = match reference.split(':').collect::<Vec<_>>()[..] {
                ["serializable"] => Reference::Serializable,
                ["oracle"] => Reference::Oracle,
                ["model", name, scale] => Reference::Model {
                    name: name.to_owned(),
                    scale: scale.parse().map_err(|_| bad(line))?,
                },
                _ => return Err(bad(line)),
            };
            Ok(Input {
                file: file.to_owned(),
                events: events.parse().map_err(|_| bad(line))?,
                bytes: bytes.parse().map_err(|_| bad(line))?,
                reference,
            })
        })
        .collect()
}

/// The resolved check for one trace's warnings. It uses the models' ground
/// truth and the offline oracle, and shares no code with the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// No warnings.
    NoWarnings,
    /// Every warning blames one of these labels.
    BlameWithin(Vec<String>),
    /// No warnings iff `serializable`.
    Verdict {
        /// The oracle's verdict.
        serializable: bool,
    },
}

impl Expect {
    /// Resolves `input`'s reference; an oracle reference decodes the file
    /// and runs `events::oracle::check`, which is quadratic and meant for
    /// the small traces only.
    pub fn resolve(dir: &Path, input: &Input) -> Result<Expect, String> {
        Ok(match &input.reference {
            Reference::Serializable => Expect::NoWarnings,
            Reference::Model { name, scale } => {
                let model = velodrome_workloads::build(name, *scale)
                    .ok_or_else(|| format!("unknown model `{name}`"))?;
                Expect::BlameWithin(model.non_atomic)
            }
            Reference::Oracle => {
                let path = inputs_dir(dir).join(&input.file);
                let trace = decode_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                Expect::Verdict {
                    serializable: velodrome_events::oracle::check(&trace).serializable,
                }
            }
        })
    }

    /// Whether warnings with these messages satisfy the reference. A
    /// message must read `<label> is not atomic: …`; anything else (a
    /// degradation notice, say) fails every reference.
    pub fn holds<'a>(&self, messages: impl IntoIterator<Item = &'a str>) -> bool {
        let labels: Option<Vec<&str>> = messages
            .into_iter()
            .map(|m| m.split_once(" is not atomic: ").map(|(label, _)| label))
            .collect();
        let Some(labels) = labels else {
            return false;
        };
        match self {
            Expect::NoWarnings => labels.is_empty(),
            Expect::BlameWithin(allowed) => labels.iter().all(|l| allowed.iter().any(|a| a == l)),
            Expect::Verdict { serializable } => labels.is_empty() == *serializable,
        }
    }

    /// The reference as one JSON value, for `reference.json`.
    pub fn to_json(&self) -> String {
        match self {
            Expect::NoWarnings => r#"{"kind":"no_warnings"}"#.to_owned(),
            Expect::BlameWithin(labels) => {
                let quoted: Vec<String> = labels.iter().map(|l| json_string(l)).collect();
                format!(
                    r#"{{"kind":"blame_within","labels":[{}]}}"#,
                    quoted.join(",")
                )
            }
            Expect::Verdict { serializable } => {
                format!(r#"{{"kind":"verdict","serializable":{serializable}}}"#)
            }
        }
    }
}

/// Resolves every input's reference and writes `reference.json` in `dir`:
/// one object keyed by file name.
pub fn write_references(dir: &Path, inputs: &[Input]) -> Result<Vec<Expect>, String> {
    let expects = inputs
        .iter()
        .map(|i| Expect::resolve(dir, i))
        .collect::<Result<Vec<_>, _>>()?;
    let body: Vec<String> = inputs
        .iter()
        .zip(&expects)
        .map(|(i, e)| format!("{}:{}", json_string(&i.file), e.to_json()))
        .collect();
    std::fs::write(
        dir.join("reference.json"),
        format!("{{{}}}\n", body.join(",")),
    )
    .map_err(|e| format!("writing reference.json: {e}"))?;
    Ok(expects)
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses `--name value` pairs (and bare `--flag`s) from the command line.
pub fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_read_the_blamed_label_from_the_message() {
        let blame = Expect::BlameWithin(vec!["Set.add".into()]);
        let msg = "Set.add is not atomic: cycle [T1:Set.add -> T2:<unary>] at op 9 (blamed)";
        assert!(blame.holds([msg]));
        assert!(!blame.holds(["Set.remove is not atomic: cycle [] at op 3 (blamed)"]));
        assert!(!blame.holds(["analysis degraded to RecorderOnly"]));
        assert!(Expect::NoWarnings.holds([]));
        assert!(!Expect::NoWarnings.holds([msg]));
        assert!(Expect::Verdict {
            serializable: false
        }
        .holds([msg]));
        assert!(!Expect::Verdict {
            serializable: false
        }
        .holds([]));
    }

    #[test]
    fn manifests_round_trip() {
        let dir = std::env::temp_dir().join(format!("perfbench-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inputs = vec![
            Input {
                file: "a.vbt".into(),
                events: 3,
                bytes: 40,
                reference: Reference::Model {
                    name: "tsp".into(),
                    scale: 16,
                },
            },
            Input {
                file: "b.vbt".into(),
                events: 5,
                bytes: 50,
                reference: Reference::Oracle,
            },
        ];
        write_manifest(&dir, &inputs).unwrap();
        let back = read_manifest(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].reference, inputs[0].reference);
        assert_eq!((back[1].file.as_str(), back[1].events), ("b.vbt", 5));
    }
}
