//! # mimir-bench — figure-reproduction harnesses
//!
//! One binary per table/figure of the paper's evaluation (Section IV),
//! plus plain-harness micro and ablation benches. Each binary prints the
//! series the figure plots and writes a JSON record next to it; see
//! EXPERIMENTS.md for paper-vs-measured notes.
//!
//! All sizes follow the scaling convention in DESIGN.md: the paper's GB
//! become MB (÷1024), node memory and page sizes scale alike, so the
//! crossover points land at the same ratios.

pub mod platforms;
pub mod report;
pub mod runner;
pub mod sweeps;
pub mod trace;

pub use platforms::Platform;
pub use report::{print_figure, write_json, DataPoint, Figure, Series};
pub use runner::{RunOutcome, Status};
pub use trace::TraceSession;

/// Parses the common harness CLI: `--quick` (shrink sweeps), `--json
/// <path>` (write results), `--nodes <n>` (override max node count).
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Shrink sweeps for smoke-testing.
    pub quick: bool,
    /// Where to write the JSON record.
    pub json: Option<String>,
    /// Cap on simulated node counts for scaling figures.
    pub max_nodes: Option<usize>,
}

impl HarnessArgs {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    /// Panics on unknown arguments (these binaries are harnesses, not
    /// user tools).
    pub fn parse() -> Self {
        let mut out = Self::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--json" => out.json = Some(it.next().expect("path after --json")),
                "--nodes" => {
                    out.max_nodes = Some(
                        it.next()
                            .expect("count after --nodes")
                            .parse()
                            .expect("number"),
                    );
                }
                other => panic!("unknown argument {other} (expected --quick/--json/--nodes)"),
            }
        }
        out
    }

    /// Where a bench writes its result file `file`: the `--json` path if
    /// given; otherwise `target/bench-quick/<file>` under `--quick`, so
    /// smoke runs never overwrite the checked-in full-run results; and
    /// otherwise `file` in the working directory.
    ///
    /// # Panics
    /// Panics if the quick-output directory cannot be created.
    pub fn output_path(&self, file: &str) -> String {
        if let Some(path) = &self.json {
            return path.clone();
        }
        if !self.quick {
            return file.to_string();
        }
        let dir = std::path::Path::new("target").join("bench-quick");
        std::fs::create_dir_all(&dir).expect("creating target/bench-quick");
        dir.join(file).to_string_lossy().into_owned()
    }
}

/// Formats a byte count the way the paper's axes do (256K, 1M, 16M…).
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::fmt_size;

    #[test]
    fn sizes_format_like_paper_axes() {
        assert_eq!(fmt_size(512), "512");
        assert_eq!(fmt_size(64 << 10), "64K");
        assert_eq!(fmt_size(256 << 10), "256K");
        assert_eq!(fmt_size(1 << 20), "1M");
        assert_eq!(fmt_size(16 << 20), "16M");
        // Non-multiple of MiB falls back to KiB.
        assert_eq!(fmt_size((1 << 20) + (512 << 10)), "1536K");
    }
}
