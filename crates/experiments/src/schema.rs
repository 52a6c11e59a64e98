//! Canonical, versioned serialization for [`SystemConfig`],
//! [`RunReport`] and [`TenantsReport`]: the one module that writes and
//! reads the workspace's JSON documents.
// bc-lint: allow-file(float) — the codec must spell and re-read the
// config's existing f64 fields; shortest-round-trip formatting only, no
// arithmetic on the values.
//!
//! The sweep service (`bc-serve`) memoizes completed cells in a
//! content-addressed store keyed by a hash of the cell's configuration, so
//! the configuration needs a *canonical* byte encoding: one spelling per
//! value, stable across processes, hosts and PRs (until deliberately
//! versioned). This module provides it, plus the matching decoder with
//! typed errors. It also writes every report: [`encode_report`] next to
//! its inverse [`decode_report`] (the bytes the golden snapshots, the
//! cache and the determinism suites compare), and [`encode_tenants_report`]
//! / [`encode_tenants_matrix`] for the multi-tenant experiment. Every
//! document is assembled from the token writers in [`json`].
//!
//! Canonical form is JSON text with:
//!
//! * a fixed field order (struct declaration order — never alphabetized,
//!   never reordered without bumping [`SCHEMA_VERSION`]);
//! * exactly one spelling per value: integers in decimal, floats in Rust's
//!   shortest round-trip form (`{:?}`), enums as their stable kebab-case
//!   or figure labels;
//! * no optional fields on the config side — every knob is always
//!   present, so adding a field is a schema bump by construction;
//! * strict decoding: unknown fields, duplicate keys, wrong types and
//!   unknown labels are all typed [`SchemaError`]s, never silently
//!   defaulted (a silently-defaulted knob would alias two different
//!   simulations onto one cache key).
//!
//! `encode(decode(encode(x))) == encode(x)` holds byte-for-byte; the
//! round-trip proptest (`tests/proptest_schema.rs`) and the golden-key
//! file in `crates/serve` pin it across processes.

use std::fmt;

use bc_accel::Behavior;
use bc_core::{BccConfig, FlushPolicy};
use bc_iommu::AtsConfig;
use bc_mem::{DramConfig, MemBackend};
use bc_os::ViolationPolicy;
use bc_sim::audit::{AuditFinding, AuditKind, AuditReport};
use bc_system::{
    AbortReason, GpuClass, HostActivityConfig, RunReport, SafetyModel, SystemConfig, TenantsReport,
};
use bc_workloads::WorkloadSize;

pub mod json;

use json::{JsonError, Value};

/// Version of the canonical config encoding. Bump whenever a field is
/// added, removed, renamed, reordered or re-spelled; the decoder rejects
/// any other version, and the bump invalidates every cached result key
/// (which is the point — the old keys described a different schema).
pub const SCHEMA_VERSION: u64 = 1;

/// Simulator revision folded into every cache key. Byte-identical
/// `RunReport`s are only guaranteed *within* one revision of the
/// simulator's timing model, so the revision is part of the key material.
/// Bump this in the same commit that re-blesses the golden reports
/// (`BLESS=1 cargo test --test goldens`) — same discipline, same trigger:
/// an intentional change to simulated timing.
pub const CODE_REV: &str = "bc-goldens-pr6";

/// A decode failure, locating the offending field.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The text is not well-formed JSON.
    Json(JsonError),
    /// The envelope carries a schema version this decoder does not speak.
    Version {
        /// The version found in the document.
        found: u64,
    },
    /// A required field is absent.
    Missing {
        /// Dotted path of the absent field.
        field: String,
    },
    /// A field holds a value of the wrong JSON type or range.
    WrongType {
        /// Dotted path of the field.
        field: String,
        /// What the schema expects there.
        want: &'static str,
    },
    /// An enum field holds a label no variant spells.
    UnknownLabel {
        /// Dotted path of the field.
        field: String,
        /// The label found.
        label: String,
    },
    /// The object carries a field the schema does not define.
    UnknownField {
        /// The unexpected key.
        field: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Json(e) => write!(f, "malformed JSON: {e}"),
            SchemaError::Version { found } => {
                write!(
                    f,
                    "schema version {found} (this decoder speaks {SCHEMA_VERSION})"
                )
            }
            SchemaError::Missing { field } => write!(f, "missing field '{field}'"),
            SchemaError::WrongType { field, want } => {
                write!(f, "field '{field}' is not {want}")
            }
            SchemaError::UnknownLabel { field, label } => {
                write!(f, "field '{field}' holds unknown label '{label}'")
            }
            SchemaError::UnknownField { field } => write!(f, "unknown field '{field}'"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<JsonError> for SchemaError {
    fn from(e: JsonError) -> Self {
        SchemaError::Json(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn behavior_json(b: &Behavior) -> String {
    match b {
        Behavior::Correct => json::object(&[("kind", json::quote("correct"))]),
        Behavior::BuggyStaleTlb => json::object(&[("kind", json::quote("buggy-stale-tlb"))]),
        Behavior::Malicious {
            probe_period,
            probe_writes,
        } => json::object(&[
            ("kind", json::quote("malicious")),
            ("probe_period", probe_period.to_string()),
            ("probe_writes", probe_writes.to_string()),
        ]),
    }
}

fn dram_json(d: &DramConfig) -> String {
    json::object(&[
        ("access_latency", d.access_latency.to_string()),
        ("service_per_block", d.service_per_block.to_string()),
        ("channels", d.channels.to_string()),
        ("backend", json::quote(d.backend.label())),
    ])
}

fn ats_json(a: &AtsConfig) -> String {
    json::object(&[
        ("iotlb_entries", a.iotlb_entries.to_string()),
        ("iotlb_ways", a.iotlb_ways.to_string()),
        ("iotlb_latency", a.iotlb_latency.to_string()),
        ("walkers", a.walkers.to_string()),
        ("pwc_entries", a.pwc_entries.to_string()),
        ("fault_latency", a.fault_latency.to_string()),
    ])
}

fn bcc_json(b: &BccConfig) -> String {
    json::object(&[
        ("entries", b.entries.to_string()),
        ("pages_per_entry", b.pages_per_entry.to_string()),
        ("ways", b.ways.to_string()),
        ("latency", b.latency.to_string()),
    ])
}

fn host_json(h: &HostActivityConfig) -> String {
    json::object(&[
        ("period", h.period.to_string()),
        ("shared_fraction", json::float(h.shared_fraction)),
        ("write_fraction", json::float(h.write_fraction)),
        ("private_bytes", h.private_bytes.to_string()),
    ])
}

/// Encodes a [`SystemConfig`] in canonical form. Every field is present,
/// in struct declaration order, under a `schema` version envelope.
#[must_use]
pub fn encode_config(c: &SystemConfig) -> String {
    json::document(&[
        ("schema", SCHEMA_VERSION.to_string()),
        ("safety", json::quote(c.safety.label())),
        ("gpu_class", json::quote(c.gpu_class.label())),
        ("behavior", behavior_json(&c.behavior)),
        ("workload", json::quote(&c.workload)),
        ("size", json::quote(c.size.label())),
        ("seed", c.seed.to_string()),
        ("phys_bytes", c.phys_bytes.to_string()),
        ("dram", dram_json(&c.dram)),
        ("ats", ats_json(&c.ats)),
        ("bcc", bcc_json(&c.bcc)),
        ("parallel_read_check", c.parallel_read_check.to_string()),
        ("flush_policy", json::quote(c.flush_policy.label())),
        (
            "trusted_distance_penalty",
            c.trusted_distance_penalty.to_string(),
        ),
        ("iommu_hop_latency", c.iommu_hop_latency.to_string()),
        ("l2_mshrs", c.l2_mshrs.to_string()),
        ("writeback_buffer", c.writeback_buffer.to_string()),
        ("l2_ports", c.l2_ports.to_string()),
        ("iommu_ports", c.iommu_ports.to_string()),
        ("iommu_service", c.iommu_service.to_string()),
        ("gpu_clock_mhz", c.gpu_clock_mhz.to_string()),
        ("downgrades_per_second", c.downgrades_per_second.to_string()),
        (
            "downgrade_drain_cycles",
            c.downgrade_drain_cycles.to_string(),
        ),
        ("violation_policy", json::quote(c.violation_policy.label())),
        ("use_huge_pages", c.use_huge_pages.to_string()),
        (
            "host_activity",
            json::nullable(c.host_activity.as_ref().map(host_json)),
        ),
        ("record_check_stream", c.record_check_stream.to_string()),
        ("trace", c.trace.to_string()),
        (
            "max_ops_per_wavefront",
            json::nullable(c.max_ops_per_wavefront.map(|n| n.to_string())),
        ),
        ("max_cycles", c.max_cycles.to_string()),
        ("audit", c.audit.to_string()),
        ("shards", c.shards.to_string()),
        ("cluster_hop_latency", c.cluster_hop_latency.to_string()),
    ])
}

/// The exact bytes a cell's cache key hashes: the canonical config
/// encoding wrapped with the simulator revision, with `shards` normalized
/// to 1. Shard count is the *only* knob excluded from the key: the
/// sharded engine is proven byte-identical at any shard count
/// (`tests/shard_identity.rs`, `determinism.rs`), so two clients asking
/// for the same simulation at different shard counts share one cached
/// result. Every other field — including `audit`, which adds a section to
/// the report — keys a distinct entry.
#[must_use]
pub fn config_key_material(config: &SystemConfig, code_rev: &str) -> String {
    let mut normalized = config.clone();
    normalized.shards = 1;
    json::object(&[
        ("code_rev", json::quote(code_rev)),
        ("config", encode_config(&normalized)),
    ])
}

fn pair_json((a, b): (u64, u64)) -> String {
    json::array(&[a, b])
}

fn audit_json(a: &AuditReport) -> String {
    let findings: Vec<String> = a
        .findings
        .iter()
        .map(|f| {
            json::object(&[
                ("kind", json::quote(f.kind.label())),
                ("at", f.at.to_string()),
                ("detail", json::quote(&f.detail)),
            ])
        })
        .collect();
    json::object(&[
        ("assertions", a.assertions.to_string()),
        ("findings", json::array(&findings)),
    ])
}

/// Encodes a [`RunReport`] in canonical form: the format the golden
/// snapshots under `tests/goldens/` pin byte for byte, and the payload
/// `bc-serve` files under each cell's key ([`decode_report`] is the
/// inverse). Fields follow the struct's order except `events`, which
/// precedes `block_accesses`. `violations` is omitted (`violation_count`
/// carries the count).
#[must_use]
pub fn encode_report(r: &RunReport) -> String {
    let (attempted, blocked, succeeded) = r.probes;
    json::document(&[
        ("safety", json::quote(&r.safety)),
        ("workload", json::quote(&r.workload)),
        ("gpu_class", json::quote(&r.gpu_class)),
        ("cycles", r.cycles.to_string()),
        ("ops", r.ops.to_string()),
        ("events", r.events.to_string()),
        ("block_accesses", r.block_accesses.to_string()),
        ("aborted", r.aborted.to_string()),
        (
            "abort_reason",
            json::nullable(r.abort_reason.map(|a| json::quote(a.label()))),
        ),
        ("accel_disabled", r.accel_disabled.to_string()),
        ("violation_count", r.violation_count.to_string()),
        ("bc_checks", r.bc_checks.to_string()),
        (
            "bcc_hits_misses",
            json::nullable(r.bcc_hits_misses.map(pair_json)),
        ),
        ("pt_reads_writes", pair_json(r.pt_reads_writes)),
        ("dram_reads_writes", pair_json(r.dram_reads_writes)),
        ("dram_utilization", json::float(r.dram_utilization)),
        ("l1", json::nullable(r.l1.map(pair_json))),
        ("l2", json::nullable(r.l2.map(pair_json))),
        ("l1_tlb", json::nullable(r.l1_tlb.map(pair_json))),
        ("iotlb", pair_json(r.iotlb)),
        (
            "ats_translations_walks",
            pair_json(r.ats_translations_walks),
        ),
        ("minor_faults", r.minor_faults.to_string()),
        ("downgrades", r.downgrades.to_string()),
        ("probes", json::array(&[attempted, blocked, succeeded])),
        (
            "host",
            json::nullable(r.host.map(|(a, b, c)| json::array(&[a, b, c]))),
        ),
        ("audit", json::nullable(r.audit.as_ref().map(audit_json))),
    ])
}

/// Encodes a [`TenantsReport`] in canonical form: one field per line in
/// struct order, audit findings as their display strings.
#[must_use]
pub fn encode_tenants_report(r: &TenantsReport) -> String {
    let (attempted, blocked, lucky) = r.probes;
    let audit = r.audit.as_ref().map(|a| {
        let findings: Vec<String> = a
            .findings
            .iter()
            .map(|f| json::quote(&f.to_string()))
            .collect();
        json::object(&[
            ("assertions", a.assertions.to_string()),
            ("findings", json::array(&findings)),
        ])
    });
    json::document(&[
        ("tenants", r.tenants.to_string()),
        ("accels", r.accels.to_string()),
        ("mem_backend", json::quote(&r.mem_backend)),
        ("seed", r.seed.to_string()),
        ("cycles", r.cycles.to_string()),
        ("events", r.events.to_string()),
        ("completed", r.completed.to_string()),
        ("killed", r.killed.to_string()),
        ("aborted", r.aborted.to_string()),
        ("completion_p50", r.completion_p50.to_string()),
        ("completion_p95", r.completion_p95.to_string()),
        ("completion_p99", r.completion_p99.to_string()),
        ("kill_p50", r.kill_p50.to_string()),
        ("kill_p95", r.kill_p95.to_string()),
        ("kill_p99", r.kill_p99.to_string()),
        ("binds", r.binds.to_string()),
        ("preempts", r.preempts.to_string()),
        ("pt_zero_blocks", r.pt_zero_blocks.to_string()),
        ("storms", r.storms.to_string()),
        ("probes", json::array(&[attempted, blocked, lucky])),
        ("violations", r.violations.to_string()),
        ("checks", r.checks.to_string()),
        ("translations", r.translations.to_string()),
        ("walks", r.walks.to_string()),
        ("dram_reads", r.dram_reads.to_string()),
        ("dram_writes", r.dram_writes.to_string()),
        ("audit", json::nullable(audit)),
    ])
}

/// Encodes a tenants grid's results as one document keyed by cell label,
/// each cell's [`encode_tenants_report`] indented beneath its key: the
/// `tenants --json` output and the byte-equality surface of the
/// determinism suite and the tenants bench.
#[must_use]
pub fn encode_tenants_matrix(results: &[(String, TenantsReport)]) -> String {
    let cells: Vec<String> = results
        .iter()
        .map(|(label, report)| {
            let body: Vec<String> = encode_tenants_report(report)
                .lines()
                .map(|line| format!("  {line}"))
                .collect();
            format!("  {}:\n{}", json::quote(label), body.join("\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", cells.join(",\n"))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A cursor over one JSON object that tracks which keys the decoder
/// consumed, so leftovers become [`SchemaError::UnknownField`].
struct Obj<'a> {
    path: String,
    entries: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Obj<'a> {
    fn new(path: &str, v: &'a Value) -> Result<Self, SchemaError> {
        match v {
            Value::Object(entries) => Ok(Obj {
                path: path.to_string(),
                entries,
                used: vec![false; entries.len()],
            }),
            _ => Err(SchemaError::WrongType {
                field: path.to_string(),
                want: "an object",
            }),
        }
    }

    fn field_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn get(&mut self, key: &'static str) -> Result<&'a Value, SchemaError> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Ok(v);
            }
        }
        Err(SchemaError::Missing {
            field: self.field_path(key),
        })
    }

    fn u64(&mut self, key: &'static str) -> Result<u64, SchemaError> {
        let path = self.field_path(key);
        self.get(key)?.as_u64().ok_or(SchemaError::WrongType {
            field: path,
            want: "an unsigned integer",
        })
    }

    fn usize(&mut self, key: &'static str) -> Result<usize, SchemaError> {
        let path = self.field_path(key);
        self.get(key)?
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(SchemaError::WrongType {
                field: path,
                want: "an unsigned integer",
            })
    }

    fn f64(&mut self, key: &'static str) -> Result<f64, SchemaError> {
        let path = self.field_path(key);
        self.get(key)?.as_f64().ok_or(SchemaError::WrongType {
            field: path,
            want: "a finite number",
        })
    }

    fn bool(&mut self, key: &'static str) -> Result<bool, SchemaError> {
        let path = self.field_path(key);
        self.get(key)?.as_bool().ok_or(SchemaError::WrongType {
            field: path,
            want: "a boolean",
        })
    }

    fn str(&mut self, key: &'static str) -> Result<&'a str, SchemaError> {
        let path = self.field_path(key);
        self.get(key)?.as_str().ok_or(SchemaError::WrongType {
            field: path,
            want: "a string",
        })
    }

    /// Decodes a `"label"` field through a `from_label`-style parser.
    fn label<T>(
        &mut self,
        key: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, SchemaError> {
        let s = self.str(key)?;
        parse(s).ok_or_else(|| SchemaError::UnknownLabel {
            field: self.field_path(key),
            label: s.to_string(),
        })
    }

    /// `[a, b]` of unsigned integers.
    fn u64_pair(&mut self, key: &'static str) -> Result<(u64, u64), SchemaError> {
        let path = self.field_path(key);
        let err = || SchemaError::WrongType {
            field: path.clone(),
            want: "a pair of unsigned integers",
        };
        match self.get(key)? {
            Value::Array(items) if items.len() == 2 => {
                let a = items[0].as_u64().ok_or_else(err)?;
                let b = items[1].as_u64().ok_or_else(err)?;
                Ok((a, b))
            }
            _ => Err(err()),
        }
    }

    /// Fails on any key the decoder never consumed.
    fn finish(self) -> Result<(), SchemaError> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(SchemaError::UnknownField {
                    field: self.field_path(k),
                });
            }
        }
        Ok(())
    }
}

fn opt_u64(v: &Value, field: &str) -> Result<Option<u64>, SchemaError> {
    match v {
        Value::Null => Ok(None),
        _ => v.as_u64().map(Some).ok_or(SchemaError::WrongType {
            field: field.to_string(),
            want: "null or an unsigned integer",
        }),
    }
}

fn decode_behavior(v: &Value, path: &str) -> Result<Behavior, SchemaError> {
    let mut obj = Obj::new(path, v)?;
    let kind = obj.str("kind")?;
    let b = match kind {
        "correct" => Behavior::Correct,
        "buggy-stale-tlb" => Behavior::BuggyStaleTlb,
        "malicious" => Behavior::Malicious {
            probe_period: obj.u64("probe_period")?,
            probe_writes: obj.bool("probe_writes")?,
        },
        other => {
            return Err(SchemaError::UnknownLabel {
                field: format!("{path}.kind"),
                label: other.to_string(),
            })
        }
    };
    obj.finish()?;
    Ok(b)
}

/// Decodes canonical config text back into a [`SystemConfig`]. Strict:
/// wrong version, unknown fields, unknown labels and type mismatches are
/// all errors.
pub fn decode_config(text: &str) -> Result<SystemConfig, SchemaError> {
    let value = json::parse(text)?;
    let mut obj = Obj::new("", &value)?;
    let version = obj.u64("schema")?;
    if version != SCHEMA_VERSION {
        return Err(SchemaError::Version { found: version });
    }

    let safety = obj.label("safety", SafetyModel::from_label)?;
    let gpu_class = obj.label("gpu_class", GpuClass::from_label)?;
    let behavior = decode_behavior(obj.get("behavior")?, "behavior")?;
    let workload = obj.str("workload")?.to_string();
    let size = obj.label("size", WorkloadSize::from_label)?;
    let seed = obj.u64("seed")?;
    let phys_bytes = obj.u64("phys_bytes")?;

    let dram = {
        let mut d = Obj::new("dram", obj.get("dram")?)?;
        let out = DramConfig {
            access_latency: d.u64("access_latency")?,
            service_per_block: d.u64("service_per_block")?,
            channels: d.usize("channels")?,
            backend: d.label("backend", MemBackend::from_label)?,
        };
        d.finish()?;
        out
    };
    let ats = {
        let mut a = Obj::new("ats", obj.get("ats")?)?;
        let out = AtsConfig {
            iotlb_entries: a.usize("iotlb_entries")?,
            iotlb_ways: a.usize("iotlb_ways")?,
            iotlb_latency: a.u64("iotlb_latency")?,
            walkers: a.usize("walkers")?,
            pwc_entries: a.usize("pwc_entries")?,
            fault_latency: a.u64("fault_latency")?,
        };
        a.finish()?;
        out
    };
    let bcc = {
        let mut b = Obj::new("bcc", obj.get("bcc")?)?;
        let out = BccConfig {
            entries: b.usize("entries")?,
            pages_per_entry: b.u64("pages_per_entry")?,
            ways: b.usize("ways")?,
            latency: b.u64("latency")?,
        };
        b.finish()?;
        out
    };

    let parallel_read_check = obj.bool("parallel_read_check")?;
    let flush_policy = obj.label("flush_policy", FlushPolicy::from_label)?;
    let trusted_distance_penalty = obj.u64("trusted_distance_penalty")?;
    let iommu_hop_latency = obj.u64("iommu_hop_latency")?;
    let l2_mshrs = obj.usize("l2_mshrs")?;
    let writeback_buffer = obj.usize("writeback_buffer")?;
    let l2_ports = obj.usize("l2_ports")?;
    let iommu_ports = obj.usize("iommu_ports")?;
    let iommu_service = obj.u64("iommu_service")?;
    let gpu_clock_mhz = obj.u64("gpu_clock_mhz")?;
    let downgrades_per_second = obj.u64("downgrades_per_second")?;
    let downgrade_drain_cycles = obj.u64("downgrade_drain_cycles")?;
    let violation_policy = obj.label("violation_policy", ViolationPolicy::from_label)?;
    let use_huge_pages = obj.bool("use_huge_pages")?;

    let host_activity = match obj.get("host_activity")? {
        Value::Null => None,
        v => {
            let mut h = Obj::new("host_activity", v)?;
            let out = HostActivityConfig {
                period: h.u64("period")?,
                shared_fraction: h.f64("shared_fraction")?,
                write_fraction: h.f64("write_fraction")?,
                private_bytes: h.u64("private_bytes")?,
            };
            h.finish()?;
            Some(out)
        }
    };

    let record_check_stream = obj.bool("record_check_stream")?;
    let trace = obj.bool("trace")?;
    let max_ops_per_wavefront =
        opt_u64(obj.get("max_ops_per_wavefront")?, "max_ops_per_wavefront")?;
    let max_cycles = obj.u64("max_cycles")?;
    let audit = obj.bool("audit")?;
    let shards = obj.usize("shards")?;
    let cluster_hop_latency = obj.u64("cluster_hop_latency")?;
    obj.finish()?;

    Ok(SystemConfig {
        safety,
        gpu_class,
        behavior,
        workload,
        size,
        seed,
        phys_bytes,
        dram,
        ats,
        bcc,
        parallel_read_check,
        flush_policy,
        trusted_distance_penalty,
        iommu_hop_latency,
        l2_mshrs,
        writeback_buffer,
        l2_ports,
        iommu_ports,
        iommu_service,
        gpu_clock_mhz,
        downgrades_per_second,
        downgrade_drain_cycles,
        violation_policy,
        use_huge_pages,
        host_activity,
        record_check_stream,
        trace,
        max_ops_per_wavefront,
        max_cycles,
        audit,
        shards,
        cluster_hop_latency,
    })
}

fn opt_pair(v: &Value, field: &str) -> Result<Option<(u64, u64)>, SchemaError> {
    let err = || SchemaError::WrongType {
        field: field.to_string(),
        want: "null or a pair of unsigned integers",
    };
    match v {
        Value::Null => Ok(None),
        Value::Array(items) if items.len() == 2 => {
            let a = items[0].as_u64().ok_or_else(err)?;
            let b = items[1].as_u64().ok_or_else(err)?;
            Ok(Some((a, b)))
        }
        _ => Err(err()),
    }
}

fn decode_audit(v: &Value) -> Result<Option<AuditReport>, SchemaError> {
    if matches!(v, Value::Null) {
        return Ok(None);
    }
    let mut obj = Obj::new("audit", v)?;
    let assertions = obj.u64("assertions")?;
    let findings_value = obj.get("findings")?;
    let Value::Array(items) = findings_value else {
        return Err(SchemaError::WrongType {
            field: "audit.findings".to_string(),
            want: "an array",
        });
    };
    let mut findings = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let path = format!("audit.findings[{i}]");
        let mut f = Obj::new(&path, item)?;
        findings.push(AuditFinding {
            kind: f.label("kind", AuditKind::from_label)?,
            at: f.u64("at")?,
            detail: f.str("detail")?.to_string(),
        });
        f.finish()?;
    }
    obj.finish()?;
    Ok(Some(AuditReport {
        findings,
        assertions,
    }))
}

/// Decodes a serialized report ([`encode_report`] / the golden snapshot
/// format) back into a [`RunReport`]. The `violations` vector is not
/// serialized and decodes empty; `violation_count` carries the count.
pub fn decode_report(text: &str) -> Result<RunReport, SchemaError> {
    let value = json::parse(text)?;
    let mut obj = Obj::new("", &value)?;

    let safety = obj.str("safety")?.to_string();
    let workload = obj.str("workload")?.to_string();
    let gpu_class = obj.str("gpu_class")?.to_string();
    let cycles = obj.u64("cycles")?;
    let ops = obj.u64("ops")?;
    let events = obj.u64("events")?;
    let block_accesses = obj.u64("block_accesses")?;
    let aborted = obj.bool("aborted")?;
    let abort_reason = match obj.get("abort_reason")? {
        Value::Null => None,
        Value::String(s) => {
            Some(
                AbortReason::from_label(s).ok_or_else(|| SchemaError::UnknownLabel {
                    field: "abort_reason".to_string(),
                    label: s.clone(),
                })?,
            )
        }
        _ => {
            return Err(SchemaError::WrongType {
                field: "abort_reason".to_string(),
                want: "null or a string",
            })
        }
    };
    let accel_disabled = obj.bool("accel_disabled")?;
    let violation_count = obj.u64("violation_count")?;
    let bc_checks = obj.u64("bc_checks")?;
    let bcc_hits_misses = opt_pair(obj.get("bcc_hits_misses")?, "bcc_hits_misses")?;
    let pt_reads_writes = obj.u64_pair("pt_reads_writes")?;
    let dram_reads_writes = obj.u64_pair("dram_reads_writes")?;
    let dram_utilization = obj.f64("dram_utilization")?;
    let l1 = opt_pair(obj.get("l1")?, "l1")?;
    let l2 = opt_pair(obj.get("l2")?, "l2")?;
    let l1_tlb = opt_pair(obj.get("l1_tlb")?, "l1_tlb")?;
    let iotlb = obj.u64_pair("iotlb")?;
    let ats_translations_walks = obj.u64_pair("ats_translations_walks")?;
    let minor_faults = obj.u64("minor_faults")?;
    let downgrades = obj.u64("downgrades")?;
    let probes = {
        let err = || SchemaError::WrongType {
            field: "probes".to_string(),
            want: "an array of three unsigned integers",
        };
        match obj.get("probes")? {
            Value::Array(items) if items.len() == 3 => {
                let a = items[0].as_u64().ok_or_else(err)?;
                let b = items[1].as_u64().ok_or_else(err)?;
                let c = items[2].as_u64().ok_or_else(err)?;
                (a, b, c)
            }
            _ => return Err(err()),
        }
    };
    let host = {
        let err = || SchemaError::WrongType {
            field: "host".to_string(),
            want: "null or an array of three unsigned integers",
        };
        match obj.get("host")? {
            Value::Null => None,
            Value::Array(items) if items.len() == 3 => {
                let a = items[0].as_u64().ok_or_else(err)?;
                let b = items[1].as_u64().ok_or_else(err)?;
                let c = items[2].as_u64().ok_or_else(err)?;
                Some((a, b, c))
            }
            _ => return Err(err()),
        }
    };
    let audit = decode_audit(obj.get("audit")?)?;
    obj.finish()?;

    Ok(RunReport {
        safety,
        workload,
        gpu_class,
        cycles,
        ops,
        block_accesses,
        events,
        aborted,
        abort_reason,
        accel_disabled,
        violations: Vec::new(),
        violation_count,
        bc_checks,
        bcc_hits_misses,
        pt_reads_writes,
        dram_reads_writes,
        dram_utilization,
        l1,
        l2,
        l1_tlb,
        iotlb,
        ats_translations_walks,
        minor_faults,
        downgrades,
        probes,
        host,
        audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_system::{MultiTenantSystem, System, SystemConfig, TenantsConfig};

    fn exotic_config() -> SystemConfig {
        let mut c = SystemConfig::table3_defaults();
        c.safety = SafetyModel::CapiLike;
        c.gpu_class = GpuClass::ModeratelyThreaded;
        c.behavior = Behavior::Malicious {
            probe_period: 123,
            probe_writes: true,
        };
        c.workload = "bfs".to_string();
        c.size = WorkloadSize::Reference;
        c.seed = u64::MAX - 7;
        c.flush_policy = FlushPolicy::Selective;
        c.violation_policy = ViolationPolicy::LogOnly;
        c.dram.backend = MemBackend::CxlPool;
        c.host_activity = Some(HostActivityConfig {
            period: 8,
            shared_fraction: 0.4,
            write_fraction: 0.3,
            private_bytes: 1 << 20,
        });
        c.max_ops_per_wavefront = None;
        c.use_huge_pages = true;
        c.audit = true;
        c.shards = 4;
        c
    }

    #[test]
    fn config_round_trips_byte_identically() {
        for config in [SystemConfig::table3_defaults(), exotic_config()] {
            let encoded = encode_config(&config);
            let decoded = decode_config(&encoded).expect("canonical text decodes");
            assert_eq!(encode_config(&decoded), encoded);
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // f64 can't represent u64::MAX - 7; the codec must not go through
        // floating point for integers.
        let mut c = SystemConfig::table3_defaults();
        c.seed = u64::MAX - 7;
        let decoded = decode_config(&encode_config(&c)).expect("decodes");
        assert_eq!(decoded.seed, u64::MAX - 7);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let text = encode_config(&SystemConfig::table3_defaults())
            .replace(&format!("\"schema\": {SCHEMA_VERSION}"), "\"schema\": 99");
        assert_eq!(
            decode_config(&text).err(),
            Some(SchemaError::Version { found: 99 })
        );
    }

    #[test]
    fn unknown_field_and_label_are_typed() {
        let base = encode_config(&SystemConfig::table3_defaults());
        let with_extra = base.replace("  \"seed\":", "  \"zeed\": 1,\n  \"seed\":");
        assert_eq!(
            decode_config(&with_extra).err(),
            Some(SchemaError::UnknownField {
                field: "zeed".to_string()
            })
        );
        let bad_label = base.replace("\"full-flush\"", "\"mega-flush\"");
        assert_eq!(
            decode_config(&bad_label).err(),
            Some(SchemaError::UnknownLabel {
                field: "flush_policy".to_string(),
                label: "mega-flush".to_string()
            })
        );
    }

    #[test]
    fn missing_field_and_wrong_type_are_typed() {
        let base = encode_config(&SystemConfig::table3_defaults());
        let missing = base.replace("  \"trace\": false,\n", "");
        assert_eq!(
            decode_config(&missing).err(),
            Some(SchemaError::Missing {
                field: "trace".to_string()
            })
        );
        let wrong = base.replace("\"seed\": 2015", "\"seed\": \"2015\"");
        assert_eq!(
            decode_config(&wrong).err(),
            Some(SchemaError::WrongType {
                field: "seed".to_string(),
                want: "an unsigned integer"
            })
        );
    }

    #[test]
    fn key_material_normalizes_shards_only() {
        let mut a = SystemConfig::table3_defaults();
        a.shards = 1;
        let mut b = a.clone();
        b.shards = 4;
        assert_eq!(
            config_key_material(&a, CODE_REV),
            config_key_material(&b, CODE_REV),
            "shard count must share one cache entry"
        );
        let mut c = a.clone();
        c.audit = true;
        assert_ne!(
            config_key_material(&a, CODE_REV),
            config_key_material(&c, CODE_REV),
            "audit changes report bytes, so it must key separately"
        );
        assert_ne!(
            config_key_material(&a, "rev-a"),
            config_key_material(&a, "rev-b")
        );
    }

    #[test]
    fn report_round_trips_through_decode() {
        let mut config = SystemConfig::table3_defaults();
        config.size = WorkloadSize::Tiny;
        config.max_ops_per_wavefront = Some(500);
        let report = System::build(&config).expect("builds").run();
        let encoded = encode_report(&report);
        let decoded = decode_report(&encoded).expect("report decodes");
        assert_eq!(encode_report(&decoded), encoded);
        assert_eq!(decoded.cycles, report.cycles);
        assert_eq!(decoded.events, report.events);
    }

    fn sample_report() -> RunReport {
        RunReport {
            safety: "x".into(),
            workload: "w".into(),
            gpu_class: "g".into(),
            cycles: 1000,
            ops: 10,
            events: 15,
            block_accesses: 20,
            aborted: false,
            abort_reason: None,
            accel_disabled: false,
            violations: Vec::new(),
            violation_count: 0,
            bc_checks: 50,
            bcc_hits_misses: Some((90, 10)),
            pt_reads_writes: (1, 2),
            dram_reads_writes: (3, 4),
            dram_utilization: 0.5,
            l1: Some((100, 10)),
            l2: Some((10, 5)),
            l1_tlb: Some((100, 1)),
            iotlb: (10, 2),
            ats_translations_walks: (10, 2),
            minor_faults: 3,
            downgrades: 0,
            probes: (0, 0, 0),
            host: None,
            audit: None,
        }
    }

    fn finding(detail: &str) -> AuditFinding {
        AuditFinding {
            kind: AuditKind::EventInPast,
            at: 7,
            detail: detail.to_string(),
        }
    }

    #[test]
    fn report_shape_and_escaping() {
        let mut r = sample_report();
        r.workload = "n\"n\\x".into();
        r.abort_reason = Some(AbortReason::CycleLimit);
        r.audit = Some(AuditReport {
            findings: vec![finding("line1\nline2")],
            assertions: 3,
        });
        let j = encode_report(&r);
        assert!(j.starts_with("{\n"), "{j}");
        assert!(j.ends_with("}\n"), "{j}");
        assert!(j.contains("\"workload\": \"n\\\"n\\\\x\""), "{j}");
        assert!(j.contains("\"events\": 15"), "{j}");
        assert!(
            j.contains("\"abort_reason\": \"cycle valve tripped\""),
            "{j}"
        );
        assert!(j.contains("\"bcc_hits_misses\": [90, 10]"), "{j}");
        assert!(j.contains("\"dram_utilization\": 0.5"), "{j}");
        assert!(j.contains("\"kind\": \"event-in-past\""), "{j}");
        assert!(j.contains("\"detail\": \"line1\\nline2\""), "{j}");
        // The strict parser reads back what the writer escaped.
        let v = json::parse(&j).expect("encoded report is JSON");
        assert_eq!(v.get("workload").and_then(Value::as_str), Some("n\"n\\x"));
        let detail = match v.get("audit").and_then(|a| a.get("findings")) {
            Some(Value::Array(items)) => items[0].get("detail").and_then(Value::as_str),
            other => panic!("findings: {other:?}"),
        };
        assert_eq!(detail, Some("line1\nline2"));
        // A field the report does not define, such as the hot-path
        // profile an earlier build could append, is refused.
        let body = j.strip_suffix("\n}\n").expect("document ends its object");
        let profiled = format!("{body},\n  \"hot_profile\": null\n}}\n");
        assert_eq!(
            decode_report(&profiled).err(),
            Some(SchemaError::UnknownField {
                field: "hot_profile".to_string()
            })
        );
    }

    #[test]
    fn tenants_report_escapes_control_characters() {
        let config = TenantsConfig {
            tenants: 2,
            accels: 1,
            ops_per_tenant: 8,
            audit: true,
            ..TenantsConfig::default()
        };
        let mut report = MultiTenantSystem::build(&config).expect("builds").run();
        let bad = finding("line1\nline2 \"quoted\" back\\slash \u{1}");
        report.audit = Some(AuditReport {
            findings: vec![bad.clone()],
            assertions: 1,
        });
        let text = encode_tenants_report(&report);
        let v = json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        assert_eq!(
            v.get("completion_p99").and_then(Value::as_u64),
            Some(report.completion_p99)
        );
        assert_eq!(
            v.get("audit").and_then(|a| a.get("findings")),
            Some(&Value::Array(vec![Value::String(bad.to_string())]))
        );
        let matrix = encode_tenants_matrix(&[("local-dram".to_string(), report)]);
        let v = json::parse(&matrix).unwrap_or_else(|e| panic!("{e}:\n{matrix}"));
        assert!(v.get("local-dram").and_then(|c| c.get("audit")).is_some());
    }

    #[test]
    fn audited_report_round_trips() {
        let mut config = SystemConfig::table3_defaults();
        config.size = WorkloadSize::Tiny;
        config.max_ops_per_wavefront = Some(500);
        config.audit = true;
        let report = System::build(&config).expect("builds").run();
        assert!(report.audit.is_some());
        let encoded = encode_report(&report);
        let decoded = decode_report(&encoded).expect("audited report decodes");
        assert_eq!(encode_report(&decoded), encoded);
    }
}
