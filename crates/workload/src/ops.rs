//! Replayable file-operation streams for the policy ablation harness
//! (DESIGN.md §6i).
//!
//! A policy comparison is only meaningful if every arm faces *exactly*
//! the same offered load. An [`OpStream`] is a fully materialized,
//! seeded sequence of file operations; the harness replays it once per
//! policy arm, and [`OpStream::input_trace_digest`] — an hl-trace digest
//! over the rendered ops — proves the replays are byte-identical before
//! any policy ran (the replay-identity invariant).
//!
//! Two standard streams are provided, built from the same generators the
//! adversarial scenario suite uses:
//!
//! - [`OpStream::zipf_churn`]: Zipfian-skewed reads with a rewrite tail,
//!   so a hot head stays disk-resident while the cold tail ages out;
//! - [`OpStream::tenant_thrash`]: the standard adversary — conflicting
//!   reader/writer tenants from [`TenantMix`] whose union working set
//!   outsizes any reasonable cache.

use crate::tenants::{TenantKind, TenantMix};
use crate::zipf::ZipfStore;

/// One replayable file operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Create (or fully rewrite) file `file` with `len` seeded bytes;
    /// `version` selects the content so stale tertiary copies are
    /// detectable by the byte oracle.
    Write { file: u32, version: u32, len: u32 },
    /// Read file `file` end to end and verify its bytes.
    Read { file: u32 },
    /// Let `micros` of simulated time pass (files age; policies that
    /// read clocks see it).
    Advance { micros: u64 },
}

impl Op {
    /// Stable text rendering — the digest input.
    pub fn render(&self) -> String {
        match self {
            Op::Write { file, version, len } => format!("write f{file} v{version} len {len}"),
            Op::Read { file } => format!("read f{file}"),
            Op::Advance { micros } => format!("advance {micros}"),
        }
    }
}

/// A named, seeded, fully materialized operation sequence.
#[derive(Clone, Debug)]
pub struct OpStream {
    /// Workload name (report key).
    pub name: &'static str,
    /// Generator seed (for the report; the ops are already materialized).
    pub seed: u64,
    /// The operations, in replay order.
    pub ops: Vec<Op>,
}

impl OpStream {
    /// The hl-trace digest of the rendered op sequence: every op becomes
    /// a `Mark` event in a fresh tracer, which keeps none of them.
    /// Identical streams hash equal; any divergence — reordering, a
    /// different length, one changed byte — does not.
    pub fn input_trace_digest(&self) -> u64 {
        let t = hl_trace::Tracer::new();
        for (i, op) in self.ops.iter().enumerate() {
            t.mark(i as u64, op.render());
        }
        t.digest()
    }

    /// Zipfian churn: `files` files are created, then `ops` operations
    /// alternate Zipf-drawn reads (hot head) with occasional rewrites,
    /// with think-time advances so the cold tail ages. Roughly one op in
    /// eight is a rewrite; every 32 ops a long idle advances the clock
    /// ten minutes so age-banded policies see real generations.
    pub fn zipf_churn(seed: u64, files: u32, ops: u32, file_len: u32) -> OpStream {
        let mut store = ZipfStore::new(seed, files, 1.1);
        let mut out = Vec::new();
        for f in 0..files {
            out.push(Op::Write {
                file: f,
                version: 1,
                len: file_len + (f % 7) * 4096,
            });
        }
        let mut versions = vec![1u32; files as usize];
        for i in 0..ops {
            let f = store.next_object();
            if i % 8 == 7 {
                versions[f as usize] += 1;
                out.push(Op::Write {
                    file: f,
                    version: versions[f as usize],
                    len: file_len + (f % 7) * 4096,
                });
            } else {
                out.push(Op::Read { file: f });
            }
            out.push(Op::Advance { micros: 1_000_000 });
            if i % 32 == 31 {
                out.push(Op::Advance {
                    micros: 600_000_000,
                });
            }
        }
        OpStream {
            name: "policy_zipf",
            seed,
            ops: out,
        }
    }

    /// The standard adversary: a [`TenantMix`] of conflicting readers
    /// and writers. Each `(vol, slot)` target maps to one file; readers
    /// issue skewed reads over their working sets, writers churn their
    /// private files. Tenants are interleaved round-robin with their
    /// think time between rounds — the same conflict structure as the
    /// `tenant_thrash` scenario, expressed at file level.
    #[allow(clippy::too_many_arguments)]
    pub fn tenant_thrash(
        seed: u64,
        readers: u32,
        writers: u32,
        set_size: u32,
        volumes: u32,
        segments_per_volume: u32,
        rounds: u32,
        file_len: u32,
    ) -> OpStream {
        let mix = TenantMix::new(
            seed,
            readers,
            writers,
            set_size,
            volumes,
            segments_per_volume,
            1_000_000,
        );
        let file_of = |vol: u32, slot: u32| vol * segments_per_volume + slot;
        let mut out = Vec::new();
        // Materialize every file a tenant can touch.
        let mut targets: Vec<u32> = mix
            .tenants
            .iter()
            .flat_map(|t| t.working_set.iter().map(|&(v, s)| file_of(v, s)))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let mut versions = std::collections::BTreeMap::new();
        for &f in &targets {
            out.push(Op::Write {
                file: f,
                version: 1,
                len: file_len + (f % 5) * 4096,
            });
            versions.insert(f, 1u32);
        }
        // Age everything past any hot window, then thrash.
        out.push(Op::Advance {
            micros: 1_200_000_000,
        });
        let mut tenants = mix.tenants.clone();
        for _ in 0..rounds {
            for t in &mut tenants {
                let (v, s) = t.next_target();
                let f = file_of(v, s);
                match t.kind {
                    TenantKind::Reader => out.push(Op::Read { file: f }),
                    TenantKind::Writer => {
                        let ver = versions.entry(f).or_insert(0);
                        *ver += 1;
                        out.push(Op::Write {
                            file: f,
                            version: *ver,
                            len: file_len + (f % 5) * 4096,
                        });
                    }
                }
            }
            out.push(Op::Advance {
                micros: mix.tenants.first().map(|t| t.think).unwrap_or(1_000_000),
            });
        }
        OpStream {
            name: "policy_thrash",
            seed,
            ops: out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_digests() {
        let a = OpStream::zipf_churn(7, 20, 64, 65_536);
        let b = OpStream::zipf_churn(7, 20, 64, 65_536);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.input_trace_digest(), b.input_trace_digest());
        let c = OpStream::zipf_churn(8, 20, 64, 65_536);
        assert_ne!(a.input_trace_digest(), c.input_trace_digest());
    }

    #[test]
    fn digest_sees_single_op_changes() {
        let a = OpStream::zipf_churn(7, 10, 16, 65_536);
        let mut b = a.clone();
        if let Some(Op::Advance { micros }) = b.ops.last_mut() {
            *micros += 1;
        } else {
            b.ops.push(Op::Read { file: 0 });
        }
        assert_ne!(a.input_trace_digest(), b.input_trace_digest());
    }

    #[test]
    fn thrash_stream_mixes_reads_and_writer_churn() {
        let s = OpStream::tenant_thrash(11, 3, 1, 8, 6, 4, 10, 65_536);
        let reads = s
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Read { .. }))
            .count();
        let writes = s
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Write { .. }))
            .count();
        assert!(reads >= 30, "reader rounds must dominate: {reads}");
        // Initial creates plus 10 rounds of writer churn.
        assert!(writes > 10, "writer churn missing: {writes}");
        // Rewrites bump versions past 1.
        assert!(s
            .ops
            .iter()
            .any(|o| matches!(o, Op::Write { version, .. } if *version > 1)));
    }
}
