//! Multi-tenant virtualization of the spatial fabric.
//!
//! The paper's controller owns the whole PE grid for one loop at a time.
//! This module turns the grid into a shared resource: the
//! [`FabricManager`] carves it into disjoint row bands ([`Region`]s,
//! aligned to the FP-pattern period so every band sees identical PE
//! capabilities), admits concurrently prepared episodes as *tenants*, and
//! time-slices the engine between them at iteration-round boundaries.
//!
//! Admission reuses the spirit of the C1–C3 decline machinery (§4.1): a
//! region that does not fit is not rejected outright — it first *shrinks*
//! (fewer spatial tiles, the C2 analog) and failing that it *queues* until
//! a band frees up. Only a loop that cannot fit even a single tile on an
//! empty grid is declined with [`FabricError::NoCapacity`].
//!
//! Every tenant holds one live [`PlacementSnapshot`], built at admission
//! and advanced in place by each slice. Between slices the manager can
//! [`checkpoint`](FabricManager::checkpoint) it to a word stream,
//! [`restore`](FabricManager::restore) it from one, and
//! [`migrate`](FabricManager::migrate) the tenant to a different band by
//! changing only its [`Region`]: the state indexes NoC lanes relative to
//! its band and the half-ring NoC is translation invariant across aligned
//! bands, so a migrated tenant's timing is bit-identical to one that never
//! moved.

use crate::controller::{
    apply_live_outs, CpuWork, MesaController, MesaError, OffloadReport, PreparedEpisode, RunOptions,
    SystemConfig,
};
use mesa_accel::{
    AccelConfig, AccelProgram, AccelRunResult, FaultPlan, PlacementSnapshot, ProgramError,
    Region, SessionError, SessionRequest, SnapshotError, SpatialAccelerator, REGION_ROW_ALIGN,
};
use mesa_cpu::OoOCore;
use mesa_isa::ArchState;
use mesa_mem::MemorySystem;
use mesa_trace::host;
use mesa_trace::{FlightRecorder, Histogram, Json, Subsystem, Tracer};
use std::collections::VecDeque;
use std::fmt;

/// Identifies one tenant of the shared fabric (dense, starting at 0).
pub type TenantId = u32;

/// How an admission request was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The tenant got a band sized for its full tile count.
    Admitted(Region),
    /// The C2 analog: the full tiling did not fit next to the existing
    /// tenants, so the program was re-tiled down to the largest band
    /// available and admitted there.
    Shrunk {
        /// The band the shrunk program runs in.
        region: Region,
        /// Tiles the program asked for.
        tiles_before: usize,
        /// Tiles it runs with.
        tiles_after: usize,
    },
    /// No band is free right now; the tenant waits in FIFO order and is
    /// placed when a running tenant completes.
    Queued,
}

/// Progress of one scheduling slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantProgress {
    /// Frozen at a round boundary; the value is the session clock so far.
    Paused(u64),
    /// The loop exited (or exhausted its budget); total session cycles.
    Completed(u64),
    /// Still waiting in the admission queue.
    Queued,
}

/// Failure modes of the fabric manager.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// The tenant id was never issued.
    UnknownTenant(TenantId),
    /// Even a single tile does not fit on an empty grid.
    NoCapacity {
        /// Rows the smallest viable region needs.
        rows_needed: usize,
        /// Rows the grid has.
        rows_total: usize,
    },
    /// The requested migration target overlaps another tenant's band.
    RegionBusy(Region),
    /// The requested region does not start on the alignment boundary.
    RegionMisaligned(Region),
    /// The tenant is still queued and has no execution state to act on.
    StillQueued(TenantId),
    /// The tenant is not frozen mid-episode, so there is no paused session
    /// to checkpoint or migrate.
    NotPaused(TenantId),
    /// A snapshot failed to decode or did not match the tenant's binding.
    Snapshot(SnapshotError),
    /// The tenant's program failed validation against its region.
    Session(ProgramError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            FabricError::NoCapacity { rows_needed, rows_total } => {
                write!(f, "no capacity: {rows_needed} rows needed, grid has {rows_total}")
            }
            FabricError::RegionBusy(r) => write!(f, "region {r} overlaps another tenant"),
            FabricError::RegionMisaligned(r) => write!(
                f,
                "region {r} not aligned to {REGION_ROW_ALIGN}-row boundary"
            ),
            FabricError::StillQueued(id) => write!(f, "tenant {id} is still queued"),
            FabricError::NotPaused(id) => write!(f, "tenant {id} is not paused"),
            FabricError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            FabricError::Session(e) => write!(f, "session rejected: {e}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<SnapshotError> for FabricError {
    fn from(e: SnapshotError) -> Self {
        FabricError::Snapshot(e)
    }
}

impl From<SessionError> for FabricError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::Program(p) => FabricError::Session(p),
            SessionError::Snapshot(s) => FabricError::Snapshot(s),
        }
    }
}

/// Per-tenant slice of a [`FleetStats`] export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: TenantId,
    /// `"queued"`, `"running"`, or `"done"`.
    pub state: &'static str,
    /// Current (or last) band as `(first_row, rows)`, if ever placed.
    pub band: Option<(usize, usize)>,
    /// Session cycles executed so far.
    pub cycles: u64,
    /// Loop iterations completed so far.
    pub iterations: u64,
    /// Scheduling slices granted so far.
    pub slices: u64,
    /// Times the tenant was migrated.
    pub migrations: u32,
    /// Fleet cycles spent waiting in the admission queue.
    pub queue_wait_cycles: u64,
    /// Cycles attributed to checkpoint/restore during migrations.
    pub checkpoint_cycles: u64,
}

/// A stable, mergeable summary of one fleet run — the JSON schema
/// (`"schema":"mesa.fleetstats/v1"`) that `tracecheck fleetstats`
/// validates and that `mesa-serve` (ROADMAP item 2) will serve verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Fleet runs folded into this summary (1 for a single run).
    pub runs: u64,
    /// Fleet clock: total scheduled session cycles.
    pub elapsed_cycles: u64,
    /// Aligned band slots in the grid (`rows / REGION_ROW_ALIGN`).
    pub bands: usize,
    /// Busy cycles per band slot; `Σ band_busy + Σ band_idle ==
    /// elapsed_cycles × bands` exactly.
    pub band_busy: Vec<u64>,
    /// Idle cycles per band slot.
    pub band_idle: Vec<u64>,
    /// Admissions that got their full band.
    pub admitted_full: u64,
    /// Admissions re-tiled down to a smaller band (C2 analog).
    pub admitted_shrunk: u64,
    /// Admissions that had to queue for a band.
    pub queued: u64,
    /// Declined admissions (no capacity even on an empty grid).
    pub declined: u64,
    /// Completed migrations.
    pub migrations: u64,
    /// Fleet-cycle wait between admission and band placement.
    pub queue_wait: Histogram,
    /// Session cycles granted per scheduling slice.
    pub slice_cycles: Histogram,
    /// Checkpoint+restore wire cost per migration.
    pub migration_cycles: Histogram,
    /// Per-tenant detail, in tenant-id order.
    pub tenants: Vec<TenantStats>,
    /// Shared-artifact-cache counters (`None` unless a
    /// [`SharedArtifactCache`](crate::SharedArtifactCache) was attached;
    /// absent sections keep exports byte-identical with cacheless runs).
    pub artifacts: Option<crate::ArtifactCacheStats>,
}

impl FleetStats {
    /// Accounts one scheduled slice of `cycles` run in `region`: the fleet
    /// clock advances by `cycles`, the region's band slots go busy and
    /// every other slot goes idle, so `Σ busy + Σ idle == elapsed × bands`
    /// holds exactly at all times (the conservation invariant `tracecheck
    /// fleetstats` verifies).
    fn account_slice(&mut self, region: Region, cycles: u64) {
        self.elapsed_cycles += cycles;
        let lo = region.first_row / REGION_ROW_ALIGN;
        let hi = (region.end_row() / REGION_ROW_ALIGN).min(self.band_busy.len());
        for (slot, busy) in self.band_busy.iter_mut().enumerate() {
            if slot >= lo && slot < hi {
                *busy += cycles;
            } else {
                self.band_idle[slot] += cycles;
            }
        }
    }

    /// Folds `other` into `self` (used by `soak` to aggregate episodes).
    /// Aggregates and histograms add exactly; per-tenant details are
    /// concatenated. The occupancy conservation invariant is preserved:
    /// it holds for each operand, and every term adds.
    pub fn merge(&mut self, other: &FleetStats) {
        if self.bands < other.bands {
            self.band_busy.resize(other.bands, 0);
            self.band_idle.resize(other.bands, 0);
            // Slots the narrower operand never had exist from cycle 0 of
            // the wider operand onward; account the narrower operand's
            // elapsed time on them as idle to keep conservation exact.
            for slot in self.bands..other.bands {
                self.band_idle[slot] += self.elapsed_cycles;
            }
            self.bands = other.bands;
        }
        for (slot, busy) in other.band_busy.iter().enumerate() {
            self.band_busy[slot] += busy;
        }
        for (slot, idle) in other.band_idle.iter().enumerate() {
            self.band_idle[slot] += idle;
        }
        for slot in other.bands..self.bands {
            self.band_idle[slot] += other.elapsed_cycles;
        }
        self.runs += other.runs;
        self.elapsed_cycles += other.elapsed_cycles;
        self.admitted_full += other.admitted_full;
        self.admitted_shrunk += other.admitted_shrunk;
        self.queued += other.queued;
        self.declined += other.declined;
        self.migrations += other.migrations;
        self.queue_wait.merge(&other.queue_wait);
        self.slice_cycles.merge(&other.slice_cycles);
        self.migration_cycles.merge(&other.migration_cycles);
        self.tenants.extend(other.tenants.iter().cloned());
        self.artifacts = match (self.artifacts, other.artifacts) {
            (Some(mut a), Some(b)) => {
                a.absorb(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }

    /// The stable JSON export. Field order is part of the schema;
    /// output is byte-deterministic for a deterministic run.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let tenant = |t: &TenantStats| {
            let (first_row, rows) = t.band.unzip();
            Json::obj([
                ("tenant", t.tenant.into()),
                ("state", t.state.into()),
                ("first_row", first_row.into()),
                ("rows", rows.into()),
                ("cycles", t.cycles.into()),
                ("iterations", t.iterations.into()),
                ("slices", t.slices.into()),
                ("migrations", t.migrations.into()),
                ("queue_wait_cycles", t.queue_wait_cycles.into()),
                ("checkpoint_cycles", t.checkpoint_cycles.into()),
            ])
        };
        let admissions = Json::obj([
            ("full_band", self.admitted_full.into()),
            ("shrunk", self.admitted_shrunk.into()),
            ("queued", self.queued.into()),
            ("declined", self.declined.into()),
        ]);
        let histograms = Json::obj([
            ("queue_wait_cycles", self.queue_wait.to_json()),
            ("slice_cycles", self.slice_cycles.to_json()),
            ("migration_cycles", self.migration_cycles.to_json()),
        ]);
        let mut fields = vec![
            ("schema", Json::from("mesa.fleetstats/v1")),
            ("runs", self.runs.into()),
            ("elapsed_cycles", self.elapsed_cycles.into()),
            ("bands", self.bands.into()),
            ("band_busy", Json::arr(self.band_busy.iter().copied())),
            ("band_idle", Json::arr(self.band_idle.iter().copied())),
            ("admissions", admissions),
            ("migrations", self.migrations.into()),
            ("histograms", histograms),
            ("tenants", Json::arr(self.tenants.iter().map(tenant))),
        ];
        // An absent section keeps exports byte-identical with runs that had
        // no shared cache.
        fields.extend(self.artifacts.map(|a| ("artifact_cache", a.to_json())));
        Json::obj(fields)
    }
}

/// One admitted (or queued) loop on the shared fabric.
#[derive(Debug)]
struct Tenant {
    /// Band currently owned (`None` while queued or after completion).
    region: Option<Region>,
    /// Band the tenant last ran in, kept for reporting after completion.
    last_region: Option<Region>,
    program: AccelProgram,
    faults: FaultPlan,
    max_iterations: u64,
    /// The tenant's session state: fresh until its first slice, then
    /// advanced in place by every slice.
    state: PlacementSnapshot,
    /// Set once the tenant's loop has finished.
    done: bool,
    migrations: u32,
    /// Fleet clock at admission (for queue-wait attribution).
    admitted_at: u64,
    /// Fleet cycles spent queued before first placement.
    queue_wait: u64,
    /// Wire words shuttled by migrations (checkpoint + restore cost).
    checkpoint_cycles: u64,
    /// Scheduling slices granted.
    slices: u64,
    /// Session cycles already accounted into the fleet clock.
    last_cycles: u64,
}

impl Tenant {
    /// `true` while frozen mid-episode: a slice paused the session (or a
    /// restore installed one) and its loop has not finished.
    fn frozen(&self) -> bool {
        !self.done && self.state.is_bound()
    }
}

/// Carves one spatial accelerator's grid into per-tenant row bands and
/// time-slices the engine between them. See the module docs.
#[derive(Debug)]
pub struct FabricManager {
    accel: SpatialAccelerator,
    cfg: AccelConfig,
    tenants: Vec<Tenant>,
    /// Tenants waiting for a band, in admission order (head is placed
    /// first — later arrivals never jump the queue).
    queue: VecDeque<TenantId>,
    /// Fleet telemetry, kept as the export itself: every counter and
    /// histogram is updated where its event happens, and the tenant rows
    /// are filled in by [`fleet_stats`](Self::fleet_stats).
    stats: FleetStats,
    /// The always-on flight recorder (recent per-tenant event rings).
    recorder: FlightRecorder,
}

impl FabricManager {
    /// A manager for one grid of the given configuration.
    #[must_use]
    pub fn new(cfg: AccelConfig) -> Self {
        let bands = cfg.grid().rows / REGION_ROW_ALIGN;
        FabricManager {
            accel: SpatialAccelerator::new(cfg),
            cfg,
            tenants: Vec::new(),
            queue: VecDeque::new(),
            stats: FleetStats {
                runs: 1,
                bands,
                band_busy: vec![0; bands],
                band_idle: vec![0; bands],
                ..FleetStats::default()
            },
            recorder: FlightRecorder::new(),
        }
    }

    /// Rows an instance of `prog` with `tiles` tiles occupies, rounded up
    /// to the band alignment.
    fn rows_for(prog: &AccelProgram, tiles: usize) -> usize {
        (tiles.max(1) * prog.rows_per_tile()).next_multiple_of(REGION_ROW_ALIGN)
    }

    /// Lowest aligned start row of a free band of `rows` rows, skipping
    /// `exclude`'s own band (for migration) and, optionally, a forbidden
    /// start row (to force migration to actually move).
    fn free_band(
        &self,
        rows: usize,
        exclude: Option<TenantId>,
        not_at: Option<usize>,
    ) -> Option<usize> {
        let total = self.cfg.grid().rows;
        let cols = self.cfg.grid().cols;
        let mut first = 0;
        while first + rows <= total {
            let cand = Region::new(first, rows, cols);
            let busy = self.tenants.iter().enumerate().any(|(i, t)| {
                exclude != Some(i as TenantId)
                    && t.region.is_some_and(|r| r.overlaps(&cand))
            });
            if !busy && not_at != Some(first) {
                return Some(first);
            }
            first += REGION_ROW_ALIGN;
        }
        None
    }

    /// Largest free aligned band, as `(first_row, rows)`; ties go to the
    /// lowest start row.
    fn largest_free_band(&self) -> (usize, usize) {
        let total = self.cfg.grid().rows;
        let mut row_busy = vec![false; total];
        for t in &self.tenants {
            if let Some(r) = t.region {
                for row in row_busy.iter_mut().take(r.end_row().min(total)).skip(r.first_row) {
                    *row = true;
                }
            }
        }
        let mut best = (0, 0);
        let mut first = 0;
        while first + REGION_ROW_ALIGN <= total {
            let mut rows = 0;
            while first + rows + REGION_ROW_ALIGN <= total
                && row_busy[first + rows..first + rows + REGION_ROW_ALIGN]
                    .iter()
                    .all(|&b| !b)
            {
                rows += REGION_ROW_ALIGN;
            }
            if rows > best.1 {
                best = (first, rows);
            }
            first += REGION_ROW_ALIGN;
        }
        best
    }

    /// Admits a prepared configuration as a new tenant.
    ///
    /// `entry` is the architectural state at loop entry; `max_iterations`
    /// bounds the tenant's cumulative iteration count. Returns the id and
    /// how the placement was resolved (full band, shrunk band, or queued).
    ///
    /// # Errors
    /// [`FabricError::NoCapacity`] when even one tile exceeds the grid.
    pub fn admit(
        &mut self,
        mut program: AccelProgram,
        entry: ArchState,
        faults: FaultPlan,
        max_iterations: u64,
    ) -> Result<(TenantId, Admission), FabricError> {
        let rows_total = self.cfg.grid().rows;
        let min_rows = Self::rows_for(&program, 1);
        let id = self.tenants.len() as TenantId;
        if min_rows > rows_total {
            self.stats.declined += 1;
            self.recorder.record(
                id,
                self.stats.elapsed_cycles,
                "declined",
                format!("no capacity: {min_rows} rows needed, grid has {rows_total}"),
            );
            return Err(FabricError::NoCapacity { rows_needed: min_rows, rows_total });
        }
        let cols = self.cfg.grid().cols;
        let want = Self::rows_for(&program, program.tiles);
        let admission = if let Some(first) = self.free_band(want, None, None) {
            Admission::Admitted(Region::new(first, want, cols))
        } else {
            // C2 analog: the full tiling does not fit beside the current
            // tenants — re-tile down to the largest free band.
            let (first, avail) = self.largest_free_band();
            let mut tiles_fit = (avail / program.rows_per_tile().max(1)).min(program.tiles);
            while tiles_fit > 1 && Self::rows_for(&program, tiles_fit) > avail {
                tiles_fit -= 1;
            }
            if program.tiles > 1 && tiles_fit >= 1 && Self::rows_for(&program, tiles_fit) <= avail
            {
                let tiles_before = program.tiles;
                program.tiles = tiles_fit;
                Admission::Shrunk {
                    region: Region::new(first, Self::rows_for(&program, tiles_fit), cols),
                    tiles_before,
                    tiles_after: tiles_fit,
                }
            } else {
                Admission::Queued
            }
        };
        let region = match admission {
            Admission::Admitted(r) | Admission::Shrunk { region: r, .. } => Some(r),
            Admission::Queued => None,
        };
        let (outcomes, detail) = match admission {
            Admission::Admitted(r) => (&mut self.stats.admitted_full, format!("admitted to {r}")),
            Admission::Shrunk { region: r, tiles_before, tiles_after } => (
                &mut self.stats.admitted_shrunk,
                format!("shrunk {tiles_before}->{tiles_after} tiles, admitted to {r}"),
            ),
            Admission::Queued => (&mut self.stats.queued, "queued: no free band".to_string()),
        };
        *outcomes += 1;
        self.recorder.record(id, self.stats.elapsed_cycles, "admit", detail);
        if region.is_some() {
            // Placed immediately: zero queue wait, recorded so the
            // queue-wait histogram counts every placement.
            self.stats.queue_wait.record(0);
        }
        let rows = Self::rows_for(&program, program.tiles);
        self.tenants.push(Tenant {
            region,
            last_region: region,
            state: PlacementSnapshot::new(&program, &entry, rows, &faults),
            program,
            faults,
            max_iterations,
            done: false,
            migrations: 0,
            admitted_at: self.stats.elapsed_cycles,
            queue_wait: 0,
            checkpoint_cycles: 0,
            slices: 0,
            last_cycles: 0,
        });
        if region.is_none() {
            self.queue.push_back(id);
        }
        Ok((id, admission))
    }

    /// Places queued tenants (head of line first) into bands freed by a
    /// completion. Later arrivals never jump an unplaceable head, so
    /// admission order is a total order on placement.
    fn promote(&mut self) {
        while let Some(&id) = self.queue.front() {
            let Some(t) = self.tenants.get(id as usize) else {
                self.queue.pop_front();
                continue;
            };
            let want = Self::rows_for(&t.program, t.program.tiles);
            let Some(first) = self.free_band(want, None, None) else { break };
            let region = Region::new(first, want, self.cfg.grid().cols);
            if let Some(t) = self.tenants.get_mut(id as usize) {
                t.region = Some(region);
                t.last_region = Some(region);
                t.queue_wait = self.stats.elapsed_cycles.saturating_sub(t.admitted_at);
                self.stats.queue_wait.record(t.queue_wait);
                self.recorder.record(
                    id,
                    self.stats.elapsed_cycles,
                    "placed",
                    format!("placed in {region} after {} fleet cycles queued", t.queue_wait),
                );
            }
            self.queue.pop_front();
        }
    }

    /// Runs one scheduling slice of tenant `id`: at most `quantum` more
    /// session cycles, frozen at the next round boundary past that.
    /// `quantum == u64::MAX` runs the tenant to completion. Completing a
    /// tenant frees its band and promotes the queue.
    ///
    /// Idempotent on finished tenants, and a no-op on queued ones.
    ///
    /// # Errors
    /// [`FabricError::UnknownTenant`], or any engine/session failure.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &mut self,
        id: TenantId,
        mem: &mut MemorySystem,
        requester: usize,
        quantum: u64,
        tracer: &mut dyn Tracer,
        cycle_base: u64,
    ) -> Result<TenantProgress, FabricError> {
        let _host = host::span("fabric.advance");
        let t = self
            .tenants
            .get_mut(id as usize)
            .ok_or(FabricError::UnknownTenant(id))?;
        if t.done {
            return Ok(TenantProgress::Completed(t.state.cycles()));
        }
        let Some(region) = t.region else { return Ok(TenantProgress::Queued) };
        // A zero quantum could freeze at the current clock without running
        // a round; one cycle forces at least one round of progress.
        let quantum = quantum.max(1);
        let pause_at_cycle =
            (quantum != u64::MAX).then(|| t.state.cycles().saturating_add(quantum));
        let req = SessionRequest {
            requester,
            max_iterations: t.max_iterations,
            faults: &t.faults,
            region,
            pause_at_cycle,
        };
        let paused = match self.accel.run_session(
            &t.program,
            mem,
            &req,
            &mut t.state,
            tracer,
            cycle_base,
        ) {
            Ok(paused) => paused,
            Err(e) => {
                let fe = FabricError::from(e);
                self.recorder.record(
                    id,
                    self.stats.elapsed_cycles,
                    "error",
                    format!("session failed: {fe}"),
                );
                return Err(fe);
            }
        };
        let total = t.state.cycles();
        let iterations = t.state.iterations();
        let progress = if paused {
            TenantProgress::Paused(total)
        } else {
            t.done = true;
            t.region = None;
            TenantProgress::Completed(total)
        };
        let slice = total.saturating_sub(t.last_cycles);
        t.last_cycles = total;
        t.slices += 1;
        self.stats.account_slice(region, slice);
        self.stats.slice_cycles.record(slice);
        if matches!(progress, TenantProgress::Completed(_)) {
            self.recorder.record(
                id,
                self.stats.elapsed_cycles,
                "complete",
                format!("completed after {total} session cycles, {iterations} iterations"),
            );
            self.promote();
        } else {
            self.recorder.record(
                id,
                self.stats.elapsed_cycles,
                "slice",
                format!("slice of {slice} cycles in {region} (session clock {total})"),
            );
        }
        Ok(progress)
    }

    /// Serializes tenant `id`'s frozen session state to a word stream
    /// (see [`PlacementSnapshot::to_words`] for the format).
    ///
    /// # Errors
    /// [`FabricError::NotPaused`] unless the tenant is frozen.
    pub fn checkpoint(&self, id: TenantId) -> Result<Vec<u64>, FabricError> {
        let t = self.tenants.get(id as usize).ok_or(FabricError::UnknownTenant(id))?;
        t.frozen().then(|| t.state.to_words()).ok_or(FabricError::NotPaused(id))
    }

    /// Decodes `words` and replaces tenant `id`'s session state with it,
    /// after verifying it binds to the tenant's program, band
    /// height, and fault plan. A corrupted or truncated stream declines
    /// with a typed error and leaves the tenant untouched.
    ///
    /// # Errors
    /// [`FabricError::Snapshot`] on decode/binding failures;
    /// [`FabricError::StillQueued`] when the tenant has no band yet.
    pub fn restore(&mut self, id: TenantId, words: &[u64]) -> Result<(), FabricError> {
        let t = self
            .tenants
            .get_mut(id as usize)
            .ok_or(FabricError::UnknownTenant(id))?;
        let region = t.region.ok_or(FabricError::StillQueued(id))?;
        let snap = PlacementSnapshot::from_words(words)?;
        snap.check_compatible(&t.program, region, &t.faults)?;
        // A restore may rewind the session clock; re-anchor the accounted
        // mark so re-executed cycles are accounted as the real work they
        // are rather than skewing the next slice's length.
        t.last_cycles = snap.cycles();
        t.state = snap;
        Ok(())
    }

    /// Relocates the frozen tenant `id` to the band starting at
    /// `first_row` (same height). The next [`advance`](Self::advance)
    /// resumes there; aligned bands are translation-invariant, so the
    /// relocated run's timing is identical to one that never moved.
    ///
    /// # Errors
    /// [`FabricError::NotPaused`] unless frozen;
    /// [`FabricError::RegionMisaligned`] / [`FabricError::RegionBusy`] /
    /// [`FabricError::NoCapacity`] for bad targets.
    pub fn migrate(
        &mut self,
        id: TenantId,
        first_row: usize,
        tracer: &mut dyn Tracer,
    ) -> Result<Region, FabricError> {
        let _host = host::span("fabric.migrate");
        let idx = id as usize;
        let (old, cycles, wire_words) = {
            let t = self.tenants.get(idx).ok_or(FabricError::UnknownTenant(id))?;
            let old = t.region.ok_or(FabricError::StillQueued(id))?;
            if !t.frozen() {
                return Err(FabricError::NotPaused(id));
            }
            (old, t.state.cycles(), t.state.word_len() as u64)
        };
        let target = Region::new(first_row, old.rows, old.cols);
        if !target.is_aligned() {
            return Err(FabricError::RegionMisaligned(target));
        }
        if !target.fits(self.cfg.grid().rows, self.cfg.grid().cols) {
            return Err(FabricError::NoCapacity {
                rows_needed: target.end_row(),
                rows_total: self.cfg.grid().rows,
            });
        }
        let busy = self.tenants.iter().enumerate().any(|(i, t)| {
            i != idx && t.region.is_some_and(|r| r.overlaps(&target))
        });
        if busy {
            return Err(FabricError::RegionBusy(target));
        }
        // Migration cost model: the frozen placement is serialized out of
        // the old band and deserialized into the new one — one wire word
        // each way. Charged to telemetry only; the session clock is *not*
        // advanced, keeping migration architecturally (and timing-)
        // invisible to the tenant.
        let cost = 2 * wire_words;
        if let Some(t) = self.tenants.get_mut(idx) {
            t.region = Some(target);
            t.last_region = Some(target);
            t.migrations += 1;
            t.checkpoint_cycles += cost;
        }
        self.stats.migrations += 1;
        self.stats.migration_cycles.record(cost);
        self.recorder.record(
            id,
            self.stats.elapsed_cycles,
            "migrate",
            format!("{old} -> {target} ({cost} wire-word cycles)"),
        );
        if tracer.enabled() {
            tracer.instant(
                Subsystem::Controller,
                "migrate",
                &format!("tenant {id}: {old} -> {target}"),
                cycles,
            );
        }
        Ok(target)
    }

    /// Lowest free aligned start row tenant `id` could migrate to, other
    /// than where it already is (`None` when the grid is too full).
    #[must_use]
    fn migration_target(&self, id: TenantId) -> Option<usize> {
        let t = self.tenants.get(id as usize)?;
        let region = t.region?;
        self.free_band(region.rows, Some(id), Some(region.first_row))
    }

    /// The band tenant `id` currently owns (`None` while queued or after
    /// completion).
    #[must_use]
    pub fn region(&self, id: TenantId) -> Option<Region> {
        self.tenants.get(id as usize).and_then(|t| t.region)
    }

    /// The band tenant `id` last ran in (survives completion).
    #[must_use]
    fn last_region(&self, id: TenantId) -> Option<Region> {
        self.tenants.get(id as usize).and_then(|t| t.last_region)
    }

    /// Times tenant `id` was migrated.
    #[must_use]
    pub fn migrations(&self, id: TenantId) -> u32 {
        self.tenants.get(id as usize).map_or(0, |t| t.migrations)
    }

    /// Session cycles tenant `id` has run so far.
    fn session_cycles(&self, id: TenantId) -> u64 {
        self.tenants.get(id as usize).map_or(0, |t| t.state.cycles())
    }

    /// Scheduling slices tenant `id` has been granted.
    fn slices(&self, id: TenantId) -> u64 {
        self.tenants.get(id as usize).map_or(0, |t| t.slices)
    }

    /// The tenant's (possibly shrunk) configuration.
    #[must_use]
    pub fn program(&self, id: TenantId) -> Option<&AccelProgram> {
        self.tenants.get(id as usize).map(|t| &t.program)
    }

    /// The finished tenant's result, if it has completed.
    #[must_use]
    pub fn result(&self, id: TenantId) -> Option<AccelRunResult> {
        let t = self.tenants.get(id as usize)?;
        t.done.then(|| t.state.clone().into_result(&t.program))
    }

    /// `true` while tenant `id` waits for a band.
    #[must_use]
    pub fn is_queued(&self, id: TenantId) -> bool {
        self.tenants.get(id as usize).is_some_and(|t| t.region.is_none() && !t.done)
    }

    /// Fleet cycles tenant `id` spent queued before first placement.
    #[must_use]
    pub fn queue_wait_cycles(&self, id: TenantId) -> u64 {
        self.tenants.get(id as usize).map_or(0, |t| t.queue_wait)
    }

    /// Checkpoint/restore wire cost accumulated by tenant `id`'s
    /// migrations, in cycles (wire words shuttled).
    #[must_use]
    pub fn checkpoint_cycles(&self, id: TenantId) -> u64 {
        self.tenants.get(id as usize).map_or(0, |t| t.checkpoint_cycles)
    }

    /// Records an externally observed event into tenant `id`'s flight
    /// lane (the fleet scheduler uses this for decline/fault context the
    /// manager cannot see itself).
    fn record_flight(&mut self, id: TenantId, kind: &'static str, detail: String) {
        self.recorder.record(id, self.stats.elapsed_cycles, kind, detail);
    }

    /// The stable fleet-stats export: aggregates, per-band occupancy, the
    /// latency histograms, and one [`TenantStats`] per tenant.
    #[must_use]
    pub fn fleet_stats(&self) -> FleetStats {
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                // A queued or never-run tenant's state is fresh: 0 cycles,
                // 0 iterations.
                let state = if t.done {
                    "done"
                } else if t.region.is_some() {
                    "running"
                } else {
                    "queued"
                };
                TenantStats {
                    tenant: i as TenantId,
                    state,
                    band: t.last_region.map(|r| (r.first_row, r.rows)),
                    cycles: t.state.cycles(),
                    iterations: t.state.iterations(),
                    slices: t.slices,
                    migrations: t.migrations,
                    queue_wait_cycles: t.queue_wait,
                    checkpoint_cycles: t.checkpoint_cycles,
                }
            })
            .collect();
        FleetStats { tenants, ..self.stats.clone() }
    }
}

/// One loop's worth of work for [`run_tenants_fleet`]: its program, the
/// architectural state to start monitoring from, and a private memory
/// system (tenants are address-space isolated; nothing is shared).
#[derive(Debug)]
pub struct TenantJob {
    /// The program containing the hot loop.
    pub program: mesa_isa::Program,
    /// Architectural entry state; left at the post-loop state on success.
    pub state: ArchState,
    /// The tenant's private memory system (needs two requester ports).
    pub mem: MemorySystem,
    /// Fault plan armed for this tenant's episode (default benign).
    pub faults: FaultPlan,
}

impl TenantJob {
    /// A job with no faults armed.
    #[must_use]
    pub fn new(program: mesa_isa::Program, state: ArchState, mem: MemorySystem) -> Self {
        TenantJob { program, state, mem, faults: FaultPlan::none() }
    }
}

/// Bookkeeping for one job while it runs on the shared fabric.
struct Slot {
    id: TenantId,
    ep: PreparedEpisode,
    /// Band the tenant's open `region_held@…` trace span covers.
    held: Option<Region>,
}

impl Slot {
    /// Episode-relative clock for this tenant's trace spans: the episode's
    /// clock at admission plus the cycles its session has run (the driver
    /// never restores, so the session clock only moves forward).
    fn now(&self, manager: &FabricManager) -> u64 {
        self.ep.now + manager.session_cycles(self.id)
    }
}

/// Everything a fleet run produced: the per-job outcomes, the aggregate
/// [`FleetStats`], the flight recorder's recent history, and — when a
/// decline or fault fired — the rendered JSON post-mortem.
#[derive(Debug)]
pub struct FleetRun {
    /// One outcome per job, in job order (declines are typed errors,
    /// exactly like solo offloads).
    pub outcomes: Vec<Result<OffloadReport, MesaError>>,
    /// Aggregate fleet telemetry (`"schema":"mesa.fleetstats/v1"`).
    pub stats: FleetStats,
    /// The bounded per-tenant event history at run end.
    pub flight: FlightRecorder,
    /// `Some(json)` when any job declined or any report carried faults —
    /// the flight recorder's dump (`"schema":"mesa.flight/v1"`).
    pub post_mortem: Option<String>,
}

/// Incremental driver of a fleet run: prepares and admits every job up
/// front, then advances the round-robin schedule one full pass per
/// [`step`](FleetDriver::step) — so an interactive caller (`mesa-top`)
/// can render the fabric between rounds while batch callers just loop.
pub struct FleetDriver<'a> {
    manager: FabricManager,
    jobs: &'a mut [TenantJob],
    slots: Vec<Option<Slot>>,
    outcomes: Vec<Option<Result<OffloadReport, MesaError>>>,
    /// Tenant id each job was admitted as (`None` for prepare declines);
    /// survives slot teardown so labels stay stable after completion.
    admitted: Vec<Option<TenantId>>,
    quantum: u64,
    migrate_every: u64,
    remaining: usize,
    /// Shared artifact cache the per-tenant controllers were attached to
    /// (kept so fleet exports carry the cache counters).
    shared_cache: Option<std::sync::Arc<crate::SharedArtifactCache>>,
}

impl<'a> FleetDriver<'a> {
    /// Requester port the fabric uses on each tenant's memory system.
    const ACCEL: usize = 1;

    /// Prepares every job solo (F1 monitoring + F2 configuration on its
    /// own CPU and memory, under the job's own fault plan) and admits the
    /// survivors to a fresh [`FabricManager`]. Prepare-stage declines
    /// settle immediately and are logged to the flight recorder under the
    /// job's index.
    ///
    /// An optional process-wide
    /// [`SharedArtifactCache`](crate::SharedArtifactCache) is attached to
    /// every per-tenant controller: repeat kernels across tenants (and
    /// across fleet runs sharing the cache) skip the host-side decode +
    /// map work, and fleet exports carry the cache counters. The cache is
    /// architecturally invisible — outcomes are byte-identical with or
    /// without it.
    pub fn new(
        system: &SystemConfig,
        jobs: &'a mut [TenantJob],
        quantum: u64,
        migrate_every: u64,
        shared_cache: Option<std::sync::Arc<crate::SharedArtifactCache>>,
        tracer: &mut dyn Tracer,
    ) -> Self {
        let mut manager = FabricManager::new(system.accel);
        let mut outcomes: Vec<Option<Result<OffloadReport, MesaError>>> =
            jobs.iter().map(|_| None).collect();
        let mut slots: Vec<Option<Slot>> = Vec::with_capacity(jobs.len());
        let mut admitted: Vec<Option<TenantId>> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter_mut().enumerate() {
            // A fresh controller per tenant: config/trace caches are keyed
            // by PC range, and unrelated tenants may reuse the same
            // addresses.
            let opts = RunOptions {
                faults: (!job.faults.is_benign()).then(|| job.faults.clone()),
                cache: shared_cache.clone(),
            };
            let mut ctl = MesaController::with_options(system.clone(), opts);
            let mut cpu = OoOCore::new(system.core);
            let prepared = ctl.prepare_episode(
                &job.program,
                &mut job.state,
                &mut job.mem,
                &mut cpu,
                tracer,
                &mut CpuWork::default(),
            );
            match prepared {
                Ok(ep) => {
                    match manager.admit(
                        ep.accel_prog.clone(),
                        job.state.clone(),
                        ep.fault_plan.clone(),
                        system.max_accel_iterations,
                    ) {
                        Ok((id, _admission)) => {
                            tracer.span_begin(Subsystem::Controller, "offload", ep.now);
                            admitted.push(Some(id));
                            slots.push(Some(Slot { id, ep, held: None }));
                        }
                        Err(e) => {
                            outcomes[i] = Some(Err(e.into()));
                            admitted.push(None);
                            slots.push(None);
                        }
                    }
                }
                Err(e) => {
                    manager.record_flight(
                        i as TenantId,
                        "declined",
                        format!("job {i} declined at prepare: {e}"),
                    );
                    outcomes[i] = Some(Err(e));
                    admitted.push(None);
                    slots.push(None);
                }
            }
        }
        let remaining = slots.iter().filter(|s| s.is_some()).count();
        let mut driver = FleetDriver {
            manager,
            jobs,
            slots,
            outcomes,
            admitted,
            quantum,
            migrate_every,
            remaining,
            shared_cache,
        };
        driver.sync_region_spans(tracer);
        driver
    }

    /// Opens/closes `region_held@rNN` spans so each tenant's Chrome-trace
    /// timeline shows which band it occupied, balanced against that
    /// tenant's episode-relative clock. A no-op when tracing is off.
    fn sync_region_spans(&mut self, tracer: &mut dyn Tracer) {
        if !tracer.enabled() {
            return;
        }
        for slot in self.slots.iter_mut().flatten() {
            let current = self.manager.region(slot.id);
            if current == slot.held {
                continue;
            }
            let now = slot.now(&self.manager);
            if let Some(r) = slot.held {
                tracer.span_end(
                    Subsystem::Controller,
                    &format!("region_held@r{:02}", r.first_row),
                    now,
                );
            }
            if let Some(r) = current {
                tracer.span_begin(
                    Subsystem::Controller,
                    &format!("region_held@r{:02}", r.first_row),
                    now,
                );
            }
            slot.held = current;
        }
    }

    /// Runs one full round-robin pass over the unsettled jobs. Returns
    /// `true` while at least one job is still live (keep stepping).
    pub fn step(&mut self, tracer: &mut dyn Tracer) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let mut advanced_any = false;
        for i in 0..self.slots.len() {
            if self.outcomes[i].is_some() {
                continue;
            }
            let Some(slot) = self.slots[i].as_mut() else { continue };
            let progress = self.manager.advance(
                slot.id,
                &mut self.jobs[i].mem,
                Self::ACCEL,
                self.quantum,
                tracer,
                slot.now(&self.manager),
            );
            match progress {
                Ok(TenantProgress::Queued) => {}
                Ok(TenantProgress::Paused(_)) => {
                    advanced_any = true;
                    let slices = self.manager.slices(slot.id);
                    if self.migrate_every > 0 && slices.is_multiple_of(self.migrate_every) {
                        if let Some(row) = self.manager.migration_target(slot.id) {
                            // A full grid is not an error — the tenant
                            // simply stays where it is this round.
                            let _ = self.manager.migrate(slot.id, row, tracer);
                        }
                    }
                }
                Ok(TenantProgress::Completed(_)) => {
                    advanced_any = true;
                    // Close the residency span before the offload span so
                    // the per-tenant timeline nests correctly.
                    self.sync_region_spans(tracer);
                    if let Some(slot) = self.slots[i].take() {
                        let report =
                            finish_tenant(&self.manager, &slot, &mut self.jobs[i].state, tracer);
                        self.outcomes[i] = Some(report);
                    }
                    self.remaining -= 1;
                }
                Err(e) => {
                    let now = slot.now(&self.manager);
                    if tracer.enabled() {
                        if let Some(r) = slot.held.take() {
                            tracer.span_end(
                                Subsystem::Controller,
                                &format!("region_held@r{:02}", r.first_row),
                                now,
                            );
                        }
                    }
                    tracer.span_end(Subsystem::Controller, "offload", now);
                    self.outcomes[i] = Some(Err(e.into()));
                    self.remaining -= 1;
                }
            }
            // Promotion or migration may have re-banded *any* tenant.
            self.sync_region_spans(tracer);
        }
        if !advanced_any && self.remaining > 0 {
            // Every live tenant is queued and nothing is running to free a
            // band — impossible unless admission raced a failure path.
            // Decline the stragglers rather than spinning forever.
            for i in 0..self.slots.len() {
                if self.outcomes[i].is_none() {
                    if let Some(slot) = &self.slots[i] {
                        let id = slot.id;
                        self.manager.record_flight(
                            id,
                            "declined",
                            "still queued with no running tenant to free a band".to_string(),
                        );
                        self.outcomes[i] = Some(Err(FabricError::StillQueued(id).into()));
                        self.remaining -= 1;
                    }
                }
            }
        }
        self.remaining > 0
    }

    /// Jobs not yet settled (completed or declined).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The job index admitted as tenant `id`, if any. Prepare-stage
    /// declines consume no tenant id, so job and tenant numbering drift
    /// apart; interactive callers use this to label tenants by job.
    #[must_use]
    pub fn job_of_tenant(&self, id: TenantId) -> Option<usize> {
        self.admitted.iter().position(|&t| t == Some(id))
    }

    /// Point-in-time fleet stats (see [`FabricManager::fleet_stats`]),
    /// with the shared cache's counters attached when a cache is.
    #[must_use]
    pub fn fleet_stats(&self) -> FleetStats {
        let mut stats = self.manager.fleet_stats();
        stats.artifacts = self.shared_cache.as_ref().map(|c| c.stats());
        stats
    }

    /// Consumes the driver and assembles the [`FleetRun`]: outcomes in
    /// job order, final stats, the flight history, and an auto-generated
    /// post-mortem if any job declined or any report carried faults.
    #[must_use]
    pub fn into_run(self) -> FleetRun {
        let stats = self.fleet_stats();
        let outcomes: Vec<Result<OffloadReport, MesaError>> = self
            .outcomes
            .into_iter()
            .map(|o| o.unwrap_or(Err(MesaError::NoLoopDetected)))
            .collect();
        let flight = self.manager.recorder;
        let mut reason: Option<String> = None;
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Err(e) => {
                    reason = Some(format!("job {i} declined: {e}"));
                    break;
                }
                Ok(r) if r.faults.total() > 0 => {
                    // Keep scanning: a later hard decline outranks a
                    // survived fault as the headline reason.
                    if reason.is_none() {
                        reason = Some(format!(
                            "job {i} completed with {} injected faults",
                            r.faults.total()
                        ));
                    }
                }
                Ok(_) => {}
            }
        }
        let post_mortem = reason.map(|r| flight.post_mortem(&r));
        FleetRun { outcomes, stats, flight, post_mortem }
    }
}

/// Runs `jobs` as concurrent tenants of one shared fabric.
///
/// Each job is first prepared solo (F1 monitoring and F2 configuration on
/// its own CPU and memory), then admitted to a [`FabricManager`] which
/// round-robins `quantum`-cycle slices over the admitted tenants in
/// admission order. When `migrate_every > 0`, every such-manieth slice of
/// a tenant checkpoints it and relocates it to the lowest other free band
/// — exercising migration invisibility on every run.
///
/// Tenant episodes skip F3 re-optimization (the measured-latency feedback
/// loop assumes grid ownership); reports have `reconfigurations == 0` and
/// carry the tenant id, final band, and migration count.
///
/// Returns the full [`FleetRun`]: one outcome per job, in job order —
/// declines (no loop, C1–C3 rejection, truncated config, admission
/// failure) are reported as typed errors, exactly like solo offloads —
/// plus fleet stats, flight history, and any auto-generated post-mortem.
/// `cache` is attached to every per-tenant controller (see
/// [`FleetDriver::new`]). Per-tenant spans ride each tenant's own
/// episode-relative clock on `tracer`, band residency shows as balanced
/// `region_held@rNN` spans, and migrations surface as `migrate` instants.
pub fn run_tenants_fleet(
    system: &SystemConfig,
    jobs: &mut [TenantJob],
    quantum: u64,
    migrate_every: u64,
    cache: Option<std::sync::Arc<crate::SharedArtifactCache>>,
    tracer: &mut dyn Tracer,
) -> FleetRun {
    let mut driver = FleetDriver::new(system, jobs, quantum, migrate_every, cache, tracer);
    while driver.step(tracer) {}
    driver.into_run()
}

/// [`run_tenants_fleet`] with a required shared cache, in the argument
/// order the end-to-end benchmark (`bench/`) calls.
pub fn run_tenants_fleet_shared(
    system: &SystemConfig,
    jobs: &mut [TenantJob],
    quantum: u64,
    migrate_every: u64,
    tracer: &mut dyn Tracer,
    cache: &std::sync::Arc<crate::SharedArtifactCache>,
) -> FleetRun {
    run_tenants_fleet(system, jobs, quantum, migrate_every, Some(cache.clone()), tracer)
}

/// Assembles the per-tenant [`OffloadReport`] once its session completes.
fn finish_tenant(
    manager: &FabricManager,
    slot: &Slot,
    state: &mut ArchState,
    tracer: &mut dyn Tracer,
) -> Result<OffloadReport, MesaError> {
    let ep = &slot.ep;
    let (Some(prog), Some(r)) = (manager.program(slot.id), manager.result(slot.id)) else {
        return Err(FabricError::UnknownTenant(slot.id).into());
    };
    let induction = ep.ldfg.induction_nodes();
    apply_live_outs(state, prog, &r.final_regs, &induction, &ep.ldfg, r.iterations);
    state.pc = ep.end_pc;
    let mut fault_log = ep.fault_log;
    fault_log.merge(&r.faults);
    tracer.span_end(Subsystem::Controller, "offload", slot.now(manager));
    Ok(OffloadReport {
        accel_cycles: r.cycles,
        accel_iterations: r.iterations,
        tiles: prog.tiles,
        pipelined: prog.pipelined,
        placement: prog.nodes.iter().map(|n| n.coord).collect(),
        activity: r.activity,
        counters: r.counters,
        faults: fault_log,
        tenant: slot.id,
        fabric_region: manager.last_region(slot.id),
        migrations: manager.migrations(slot.id),
        queue_wait_cycles: manager.queue_wait_cycles(slot.id),
        checkpoint_cycles: manager.checkpoint_cycles(slot.id),
        ..ep.cpu_report()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesa_isa::reg::abi::*;
    use mesa_isa::{Asm, ArchState, Program, Xlen};
    use mesa_mem::MemConfig;
    use mesa_trace::NullTracer;

    const BASE: u64 = 0x10_0000;
    const OUT: u64 = 0x20_0000;

    /// sum += a[i] over n elements (serial: one tile, no shrink noise).
    fn sum_job(n: u64) -> TenantJob {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.lw(T0, A0, 0);
        a.add(T1, T1, T0);
        a.addi(A0, A0, 4);
        a.bne(A0, A1, "loop");
        a.sw(T1, A2, 0);
        a.li(A7, 93);
        a.ecall();
        let p: Program = a.finish().unwrap();
        let mut st = ArchState::new(0x1000, Xlen::Rv32);
        st.write(A0, BASE);
        st.write(A1, BASE + 4 * n);
        st.write(A2, OUT);
        let mut mem = MemorySystem::new(MemConfig::default(), 2);
        for i in 0..n {
            mem.data_mut().store_u32(BASE + 4 * i, (i % 100) as u32 + 1);
        }
        TenantJob::new(p, st, mem)
    }

    fn expected_sum(n: u64) -> u64 {
        (0..n).map(|i| u64::from((i % 100) as u32 + 1)).sum::<u64>() & 0xFFFF_FFFF
    }

    #[test]
    fn two_tenants_share_the_grid_on_disjoint_aligned_bands() {
        let system = SystemConfig::m128();
        let mut jobs = vec![sum_job(2000), sum_job(3000)];
        let reports =
            run_tenants_fleet(&system, &mut jobs, 200, 0, None, &mut NullTracer).outcomes;
        assert_eq!(reports.len(), 2);
        let a = reports[0].as_ref().unwrap();
        let b = reports[1].as_ref().unwrap();
        let (ra, rb) = (a.fabric_region.unwrap(), b.fabric_region.unwrap());
        assert!(ra.is_aligned() && rb.is_aligned());
        assert!(!ra.overlaps(&rb), "bands must be disjoint: {ra} vs {rb}");
        assert_eq!(a.tenant, 0);
        assert_eq!(b.tenant, 1);
        assert!(a.accel_iterations > 0 && b.accel_iterations > 0);
        // Both tenants' architectural results are correct.
        assert_eq!(jobs[0].state.read(T1) as u32 as u64, expected_sum(2000));
        assert_eq!(jobs[1].state.read(T1) as u32 as u64, expected_sum(3000));
        assert_eq!(jobs[0].state.pc, a.region.1);
    }

    #[test]
    fn migration_mid_episode_is_architecturally_invisible() {
        let system = SystemConfig::m128();
        let mut solo = vec![sum_job(2500)];
        let solo_reports =
            run_tenants_fleet(&system, &mut solo, 150, 0, None, &mut NullTracer).outcomes;
        let solo_report = solo_reports[0].as_ref().unwrap();

        let mut moved = vec![sum_job(2500)];
        let moved_reports =
            run_tenants_fleet(&system, &mut moved, 150, 2, None, &mut NullTracer).outcomes;
        let moved_report = moved_reports[0].as_ref().unwrap();

        assert!(moved_report.migrations > 0, "migrate_every=2 must actually migrate");
        assert_eq!(solo_report.accel_iterations, moved_report.accel_iterations);
        assert_eq!(solo_report.accel_cycles, moved_report.accel_cycles);
        assert_eq!(solo[0].state.read(T1), moved[0].state.read(T1));
        assert_eq!(solo[0].state.read(A0), moved[0].state.read(A0));
        assert_eq!(solo[0].state.pc, moved[0].state.pc);
        assert_eq!(solo[0].state.read(T1) as u32 as u64, expected_sum(2500));
    }

    #[test]
    fn fleet_stats_conserve_occupancy_and_validate() {
        let system = SystemConfig::m128();
        let mut jobs = vec![sum_job(2000), sum_job(3000)];
        let run = run_tenants_fleet(&system, &mut jobs, 200, 2, None, &mut NullTracer);
        assert!(run.outcomes.iter().all(Result::is_ok));
        let s = &run.stats;
        assert_eq!(s.runs, 1);
        assert_eq!(s.bands, system.accel.grid().rows / REGION_ROW_ALIGN);
        assert!(s.elapsed_cycles > 0);
        // Exact occupancy conservation: every slice marks each band slot
        // either busy or idle.
        let busy: u64 = s.band_busy.iter().sum();
        let idle: u64 = s.band_idle.iter().sum();
        assert_eq!(busy + idle, s.elapsed_cycles * s.bands as u64);
        assert_eq!(s.admitted_full, 2);
        assert_eq!(s.declined, 0);
        assert!(s.migrations > 0, "migrate_every=2 must migrate");
        assert_eq!(s.queue_wait.count(), 2, "one observation per placement");
        assert!(s.slice_cycles.count() >= 2);
        assert_eq!(s.migration_cycles.count(), s.migrations);
        assert_eq!(s.tenants.len(), 2);
        assert!(s.tenants.iter().all(|t| t.state == "done"));
        assert!(s.tenants.iter().all(|t| t.cycles > 0 && t.iterations > 0));
        // Per-tenant checkpoint cost shows up in the report too.
        let r0 = run.outcomes[0].as_ref().unwrap();
        assert_eq!(
            r0.checkpoint_cycles,
            s.tenants[0].checkpoint_cycles,
            "report and stats agree on migration cost"
        );
        assert!(r0.migrations == 0 || r0.checkpoint_cycles > 0);
        // The JSON export is well-formed and monotone in its quantiles.
        let json = s.to_json().to_string();
        assert!(json.starts_with("{\"schema\":\"mesa.fleetstats/v1\""));
        let doc = mesa_trace::json::parse(&json).expect("fleetstats JSON parses");
        assert_eq!(doc.to_string(), json, "re-renders to the same bytes");
        // No faults, no declines: no post-mortem.
        assert!(run.post_mortem.is_none());
        assert!(!run.flight.is_empty(), "flight recorder is always on");
    }

    #[test]
    fn fleet_stats_merge_preserves_conservation() {
        let system = SystemConfig::m128();
        let mut a_jobs = vec![sum_job(1500)];
        let a = run_tenants_fleet(&system, &mut a_jobs, 150, 0, None, &mut NullTracer).stats;
        let mut b_jobs = vec![sum_job(2500), sum_job(1000)];
        let b = run_tenants_fleet(&system, &mut b_jobs, 150, 0, None, &mut NullTracer).stats;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.elapsed_cycles, a.elapsed_cycles + b.elapsed_cycles);
        let busy: u64 = merged.band_busy.iter().sum();
        let idle: u64 = merged.band_idle.iter().sum();
        assert_eq!(busy + idle, merged.elapsed_cycles * merged.bands as u64);
        assert_eq!(merged.tenants.len(), 3);
        assert_eq!(merged.slice_cycles.count(), a.slice_cycles.count() + b.slice_cycles.count());
        let json = merged.to_json().to_string();
        assert_eq!(mesa_trace::json::parse(&json).map(|j| j.to_string()), Ok(json));
    }

    #[test]
    fn region_held_spans_are_balanced_per_tenant() {
        let system = SystemConfig::m128();
        let mut jobs = vec![sum_job(2000), sum_job(1500)];
        let mut tracer = mesa_trace::RingTracer::new(8192);
        let _ = run_tenants_fleet(&system, &mut jobs, 150, 2, None, &mut tracer);
        assert!(tracer.open_spans().is_empty(), "every region_held span must close");
        let chrome = tracer.to_chrome_trace();
        assert!(
            chrome.contains("region_held@r"),
            "band residency must appear in the trace"
        );
        mesa_trace::validate_chrome_trace(&chrome).expect("trace validates");
    }

    #[test]
    fn checkpoint_roundtrips_and_corruption_is_declined() {
        let system = SystemConfig::m128();
        let mut job = sum_job(4000);
        let mut ctl = MesaController::new(system.clone());
        let mut cpu = OoOCore::new(system.core);
        let ep = ctl
            .prepare_episode(
                &job.program,
                &mut job.state,
                &mut job.mem,
                &mut cpu,
                &mut NullTracer,
                &mut CpuWork::default(),
            )
            .unwrap();
        let mut manager = FabricManager::new(system.accel);
        let (id, admission) = manager
            .admit(ep.accel_prog.clone(), job.state.clone(), FaultPlan::none(), u64::MAX)
            .unwrap();
        assert!(matches!(admission, Admission::Admitted(_)));

        // Not paused yet: nothing to checkpoint.
        assert_eq!(manager.checkpoint(id), Err(FabricError::NotPaused(id)));

        let p = manager
            .advance(id, &mut job.mem, 1, 100, &mut NullTracer, 0)
            .unwrap();
        assert!(matches!(p, TenantProgress::Paused(_)), "quantum must freeze: {p:?}");

        let words = manager.checkpoint(id).unwrap();
        // Roundtrip restores cleanly.
        manager.restore(id, &words).unwrap();
        // Truncation and corruption decline with typed errors.
        assert!(matches!(
            manager.restore(id, &words[..words.len() - 3]),
            Err(FabricError::Snapshot(_))
        ));
        let mut bad = words.clone();
        bad[2] ^= 1;
        assert!(matches!(manager.restore(id, &bad), Err(FabricError::Snapshot(_))));

        // Migrating the frozen tenant to a busy/misaligned target fails.
        let region = manager.region(id).unwrap();
        assert!(matches!(
            manager.migrate(id, region.first_row + 1, &mut NullTracer),
            Err(FabricError::RegionMisaligned(_))
        ));
        // And to a proper free band succeeds, then completes correctly.
        let target = manager.migration_target(id).unwrap();
        let new = manager.migrate(id, target, &mut NullTracer).unwrap();
        assert_ne!(new.first_row, region.first_row);
        let p = manager
            .advance(id, &mut job.mem, 1, u64::MAX, &mut NullTracer, 0)
            .unwrap();
        assert!(matches!(p, TenantProgress::Completed(_)));
        assert_eq!(manager.migrations(id), 1);
    }
}
