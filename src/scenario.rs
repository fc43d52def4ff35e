//! One construction path for every experiment stack.
//!
//! Every harness used to assemble its simulator, disks, drivers, file
//! system, and database by hand, each with slightly different boilerplate.
//! A [`Scenario`] is the declarative description of a stack — disk
//! profiles, scheduler policy, Trail-vs-standard log device, seed — and
//! [`StackBuilder`] is the fluent way to put one together. [`build`]
//! yields a [`BuiltStack`] whose disks have clean statistics (format and
//! boot noise is reset), ready for measurement; file systems and a
//! database engine mount on top with one call each.
//!
//! [`build`]: StackBuilder::build
//!
//! ```
//! use trail::{Scenario, StackBuilder};
//!
//! // The paper's testbed: one SCSI log disk over three IDE data disks.
//! let mut built = StackBuilder::new().data_disks(3).trail_default().build()?;
//! assert!(built.trail.is_some());
//!
//! // The baseline for the same experiment: no log disk, C-LOOK driver.
//! let base = StackBuilder::new().data_disks(3).standard().build()?;
//! assert!(base.trail.is_none());
//! # Ok::<(), trail::core::TrailError>(())
//! ```

use std::rc::Rc;

use trail_blockio::{Clook, Fifo, Priority, Scheduler, SharedBlockDevice, StandardDriver};
use trail_core::{
    format_log_disk, writeback_targets, FormatOptions, MultiTrail, TrailConfig, TrailDriver,
    TrailError,
};
use trail_db::{BlockStack, Database, DbConfig, MultiTrailStack, StandardStack, TrailStack};
use trail_disk::profiles::{self, DriveProfile};
use trail_disk::{Disk, DiskRole};
use trail_fs::{ExtFs, FsError, Lfs, LfsConfig};
use trail_sim::{FaultClock, FaultPlan, Simulator};
use trail_volume::{RaidVolume, VolumeLayout};

/// Which log device fronts the data disks.
#[derive(Clone, Debug)]
pub enum LogDevice {
    /// Trail: a dedicated log disk absorbs synchronous writes (the
    /// paper's subsystem).
    Trail {
        /// Driver configuration (threshold, batching, δ policy…).
        config: TrailConfig,
    },
    /// A Trail array (paper §6): one Trail instance per log disk, routed
    /// by [`trail_core::LogRouting`], sharing the data disks.
    TrailMulti {
        /// Number of log disks (raised to at least 1).
        logs: usize,
        /// Driver configuration shared by every instance.
        config: TrailConfig,
    },
    /// The standard disk subsystem: writes pay full seek + rotation at
    /// their target addresses.
    Standard,
}

/// Which request scheduler the per-disk drivers run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerKind {
    /// First-in, first-out.
    Fifo,
    /// C-LOOK elevator (Linux-of-the-era default).
    Clook,
}

impl SchedulerKind {
    fn instantiate(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(Fifo::default()),
            SchedulerKind::Clook => Box::new(Clook::default()),
        }
    }
}

/// A RAID volume layer under the stack: each logical device becomes a
/// `trail-volume` array over its own set of member disks instead of one
/// raw disk.
#[derive(Clone, Copy, Debug)]
pub struct VolumeSpec {
    /// The array layout (linear, RAID-0/1/5).
    pub layout: VolumeLayout,
    /// Member disks per volume (must satisfy the layout's minimum).
    pub members: usize,
    /// With [`LogDevice::TrailMulti`]: give every Trail instance its
    /// **own** volume set instead of sharing one, so each routed stream's
    /// data lands on its own member disks (per-stream target devices).
    /// Coherent because routing is deterministic: a block — or, under
    /// stream affinity, a stream — always reaches the same instance and
    /// therefore the same array.
    pub per_instance: bool,
}

/// A declarative description of an experiment stack.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Base RNG seed for whatever workload runs on the stack. The stack
    /// itself is deterministic; this is carried along so a scenario fully
    /// names an experiment.
    pub seed: u64,
    /// Number of data disks.
    pub data_disks: usize,
    /// The data-disk model.
    pub data_profile: DriveProfile,
    /// The log-disk model (used only with [`LogDevice::Trail`]).
    pub log_profile: DriveProfile,
    /// Request scheduling on the standard per-disk drivers.
    pub scheduler: SchedulerKind,
    /// Read-vs-write priority on the standard per-disk drivers.
    pub priority: Priority,
    /// Trail or the baseline.
    pub log_device: LogDevice,
    /// When set, each device is a RAID volume over `members` disks of
    /// [`data_profile`](Scenario::data_profile) instead of one raw disk.
    pub volume: Option<VolumeSpec>,
    /// The fault schedule armed on the built stack. Offsets are relative
    /// to the end of [`build`](Scenario::build) (post-format, post-boot,
    /// stats reset) — the instant measurements start.
    pub faults: FaultPlan,
}

impl Default for Scenario {
    /// The paper's testbed: three WD-Caviar-class IDE data disks behind a
    /// Trail driver on an ST41601N-class SCSI log disk.
    fn default() -> Self {
        Scenario {
            seed: 0,
            data_disks: 3,
            data_profile: profiles::wd_caviar_10gb(),
            log_profile: profiles::seagate_st41601n(),
            scheduler: SchedulerKind::Clook,
            priority: Priority::None,
            log_device: LogDevice::Trail {
                config: TrailConfig::default(),
            },
            volume: None,
            faults: FaultPlan::new(),
        }
    }
}

impl Scenario {
    /// Builds the stack this scenario describes.
    ///
    /// Construction runs in two steps. First come the data targets each
    /// Trail instance writes back to: one driver per raw data disk, or one
    /// [`RaidVolume`] per device (per instance, with
    /// [`VolumeSpec::per_instance`] under [`LogDevice::TrailMulti`]).
    /// Then the log device is put in front of them. Raw disks under Trail
    /// get the reads-first drivers of [`writeback_targets`]; RAID members
    /// and the standard stack's disks get the scenario's
    /// [`scheduler`](Scenario::scheduler) and
    /// [`priority`](Scenario::priority).
    ///
    /// # Errors
    ///
    /// Propagates log-disk format or Trail boot failures.
    pub fn build(&self) -> Result<BuiltStack, TrailError> {
        let mut sim = Simulator::new();
        let instances = match &self.log_device {
            LogDevice::TrailMulti { logs, .. } => (*logs).max(1),
            _ => 1,
        };
        let mut data_disks: Vec<Disk> = Vec::new();
        let mut volumes: Vec<RaidVolume> = Vec::new();
        // The driver a standard-stack disk or a RAID member runs behind.
        let driver =
            |d: Disk| StandardDriver::with_policy(d, self.scheduler.instantiate(), self.priority);
        // Instance `i` writes back to `sets[i]`.
        let sets: Vec<Vec<SharedBlockDevice>> = match self.volume {
            None => {
                data_disks = (0..self.data_disks)
                    .map(|i| Disk::new(format!("data{i}"), self.data_profile.clone()))
                    .collect();
                let set = match self.log_device {
                    LogDevice::Standard => data_disks
                        .iter()
                        .map(|d| Rc::new(driver(d.clone())) as SharedBlockDevice)
                        .collect(),
                    _ => writeback_targets(&data_disks),
                };
                vec![set; instances]
            }
            Some(spec) => {
                // One volume per logical device; `tag` distinguishes
                // per-instance sets under a Trail array.
                let mut make_set = |tag: &str| -> Vec<SharedBlockDevice> {
                    (0..self.data_disks)
                        .map(|dev| {
                            let members = (0..spec.members)
                                .map(|m| {
                                    let d = Disk::new(
                                        format!("data{dev}{tag}m{m}"),
                                        self.data_profile.clone(),
                                    );
                                    data_disks.push(d.clone());
                                    driver(d)
                                })
                                .collect();
                            let vol =
                                RaidVolume::new(&format!("vol{dev}{tag}"), spec.layout, members);
                            volumes.push(vol.clone());
                            Rc::new(vol) as SharedBlockDevice
                        })
                        .collect()
                };
                if spec.per_instance && matches!(self.log_device, LogDevice::TrailMulti { .. }) {
                    // Instance-major: volumes[i * devices + dev] is
                    // instance i's array for device dev.
                    (0..instances).map(|i| make_set(&format!("i{i}"))).collect()
                } else {
                    vec![make_set(""); instances]
                }
            }
        };
        let (stack, trail, multi, log_disks): (Rc<dyn BlockStack>, _, _, Vec<Disk>) =
            match &self.log_device {
                LogDevice::Trail { config } => {
                    let log = Disk::new("trail-log", self.log_profile.clone());
                    format_log_disk(&mut sim, &log, FormatOptions::default())?;
                    let set = sets.into_iter().next().expect("one target set");
                    let (drv, _) =
                        TrailDriver::start_with_targets(&mut sim, log.clone(), set, *config)?;
                    (
                        Rc::new(TrailStack::new(drv.clone(), self.data_disks)),
                        Some(drv),
                        None,
                        vec![log],
                    )
                }
                LogDevice::TrailMulti { config, .. } => {
                    let logs: Vec<Disk> = (0..instances)
                        .map(|i| Disk::new(format!("log{i}"), self.log_profile.clone()))
                        .collect();
                    for log in &logs {
                        format_log_disk(&mut sim, log, FormatOptions::default())?;
                    }
                    let (array, _) =
                        MultiTrail::start_with_targets(&mut sim, logs.clone(), sets, *config)?;
                    (
                        Rc::new(MultiTrailStack::new(array.clone(), self.data_disks)),
                        None,
                        Some(array),
                        logs,
                    )
                }
                LogDevice::Standard => {
                    let set = sets.into_iter().next().expect("one target set");
                    (
                        Rc::new(StandardStack::with_targets(set)),
                        None,
                        None,
                        Vec::new(),
                    )
                }
            };
        // Formatting runs the δ-calibration sweep, whose under-compensated
        // probes pay full rotations by design; start measurements clean.
        for log in &log_disks {
            log.reset_stats();
        }
        for d in &data_disks {
            d.reset_stats();
        }
        let log_disk = match &self.log_device {
            LogDevice::Trail { .. } => log_disks.first().cloned(),
            _ => None,
        };
        let fault_clock = self.arm_faults(&mut sim, &data_disks, &log_disks, &volumes);
        Ok(BuiltStack {
            seed: self.seed,
            sim,
            data_disks,
            log_disk,
            log_disks,
            trail,
            multi,
            volumes,
            stack,
            fault_clock,
        })
    }

    /// Registers every device on a fresh [`FaultClock`] and arms the
    /// scenario's [`faults`](Scenario::faults) plan. This runs at the very
    /// end of [`build`](Scenario::build), after boot noise is reset, so
    /// fault offsets are relative to the instant measurements start.
    fn arm_faults(
        &self,
        sim: &mut Simulator,
        data_disks: &[Disk],
        log_disks: &[Disk],
        volumes: &[RaidVolume],
    ) -> FaultClock {
        let clock = FaultClock::new();
        for (i, d) in data_disks.iter().enumerate() {
            clock.register(d.fault_sink(DiskRole::Data(i)));
        }
        for (i, d) in log_disks.iter().enumerate() {
            clock.register(d.fault_sink(DiskRole::Log(i)));
        }
        for (i, v) in volumes.iter().enumerate() {
            clock.register(v.fault_sink(i));
        }
        clock.arm(sim, &self.faults);
        clock
    }
}

/// Fluent construction of a [`Scenario`].
#[derive(Clone, Debug, Default)]
pub struct StackBuilder {
    scenario: Scenario,
    /// File size for file-system targets; see
    /// [`fs_file_blocks`](StackBuilder::fs_file_blocks) in `target.rs`.
    pub(crate) fs_file_blocks: Option<u32>,
}

impl StackBuilder {
    /// Starts from the paper's default testbed (see [`Scenario::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the workload seed carried by the scenario.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the number of data disks.
    #[must_use]
    pub fn data_disks(mut self, n: usize) -> Self {
        self.scenario.data_disks = n;
        self
    }

    /// Sets the data-disk model.
    #[must_use]
    pub fn data_profile(mut self, profile: DriveProfile) -> Self {
        self.scenario.data_profile = profile;
        self
    }

    /// Sets the log-disk model.
    #[must_use]
    pub fn log_profile(mut self, profile: DriveProfile) -> Self {
        self.scenario.log_profile = profile;
        self
    }

    /// Sets the per-disk scheduler for the standard stack.
    #[must_use]
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scenario.scheduler = kind;
        self
    }

    /// Sets read-vs-write priority for the standard stack.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.scenario.priority = priority;
        self
    }

    /// Fronts the data disks with a Trail log device.
    #[must_use]
    pub fn trail(mut self, config: TrailConfig) -> Self {
        self.scenario.log_device = LogDevice::Trail { config };
        self
    }

    /// Fronts the data disks with a default-configured Trail log device.
    #[must_use]
    pub fn trail_default(self) -> Self {
        self.trail(TrailConfig::default())
    }

    /// Fronts the data disks with a Trail array of `logs` log disks
    /// (raised to at least 1).
    #[must_use]
    pub fn trail_multi(mut self, logs: usize, config: TrailConfig) -> Self {
        self.scenario.log_device = LogDevice::TrailMulti { logs, config };
        self
    }

    /// Uses the standard disk subsystem (no log device).
    #[must_use]
    pub fn standard(mut self) -> Self {
        self.scenario.log_device = LogDevice::Standard;
        self
    }

    /// Backs every device with a RAID volume of `members` member disks
    /// instead of one raw disk (see [`VolumeSpec`]).
    #[must_use]
    pub fn volumes(mut self, layout: VolumeLayout, members: usize) -> Self {
        self.scenario.volume = Some(VolumeSpec {
            layout,
            members,
            per_instance: false,
        });
        self
    }

    /// With [`trail_multi`](StackBuilder::trail_multi) volumes: each Trail
    /// instance gets its own volume set (per-stream target devices).
    ///
    /// # Panics
    ///
    /// Panics if called before [`volumes`](StackBuilder::volumes).
    #[must_use]
    pub fn per_instance_volumes(mut self) -> Self {
        self.scenario
            .volume
            .as_mut()
            .expect("per_instance_volumes requires volumes(..) first")
            .per_instance = true;
        self
    }

    /// Arms a fault schedule on the built stack (see [`Scenario::faults`]).
    /// Offsets are relative to the end of `build`.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.scenario.faults = plan;
        self
    }

    /// The scenario described so far.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Builds the stack.
    ///
    /// # Errors
    ///
    /// Propagates log-disk format or Trail boot failures.
    pub fn build(self) -> Result<BuiltStack, TrailError> {
        self.scenario.build()
    }
}

/// A running stack produced by [`StackBuilder::build`].
pub struct BuiltStack {
    /// The scenario's workload seed, carried through for the harness.
    pub seed: u64,
    /// The simulator (virtual time).
    pub sim: Simulator,
    /// The data disks, in device order.
    pub data_disks: Vec<Disk>,
    /// The Trail log disk, when the scenario runs on a single-log Trail.
    pub log_disk: Option<Disk>,
    /// All log disks, in instance order (one for [`LogDevice::Trail`],
    /// several for [`LogDevice::TrailMulti`], none for
    /// [`LogDevice::Standard`]).
    pub log_disks: Vec<Disk>,
    /// The Trail driver, when the scenario runs on a single-log Trail.
    pub trail: Option<TrailDriver>,
    /// The Trail array, when the scenario runs on
    /// [`LogDevice::TrailMulti`].
    pub multi: Option<MultiTrail>,
    /// The RAID volumes, when the scenario has a [`VolumeSpec`] — in
    /// device order; with per-instance volumes, instance-major
    /// (`volumes[i * devices + dev]`). Empty otherwise. Their member
    /// disks are [`data_disks`](BuiltStack::data_disks).
    pub volumes: Vec<RaidVolume>,
    /// The block stack (Trail, Trail array, or standard) the upper layers
    /// submit to.
    pub stack: Rc<dyn BlockStack>,
    /// The fault clock the scenario's [`FaultPlan`] was armed on, with
    /// every disk and volume registered. Harnesses may register extra
    /// sinks (e.g. a crash-campaign flag) before the faults fire, and can
    /// inspect [`fired`](FaultClock::fired) /
    /// [`unhandled`](FaultClock::unhandled) afterwards.
    pub fault_clock: FaultClock,
}

impl BuiltStack {
    /// Installs a workload-capture tap on the stack (see
    /// [`trail_blockio::SubmitTap`]): every request submitted through
    /// [`BuiltStack::stack`] — directly, through a mounted file system, or
    /// through the database engine — is reported to the tap at its arrival
    /// instant, which is how `trail-trace` records a scenario's workload.
    pub fn set_tap(&self, tap: trail_blockio::TapHandle) {
        self.stack.set_tap(tap);
    }

    /// Formats an ext2-like file system on device `dev` and mounts it.
    ///
    /// # Errors
    ///
    /// Propagates format failures ([`FsError`]).
    pub fn extfs(&mut self, dev: usize, capacity_blocks: u32) -> Result<ExtFs, FsError> {
        ExtFs::format(&mut self.sim, Rc::clone(&self.stack), dev, capacity_blocks)
    }

    /// Mounts a log-structured file system on device `dev`.
    #[must_use]
    pub fn lfs(&self, dev: usize, config: LfsConfig) -> Lfs {
        Lfs::new(Rc::clone(&self.stack), dev, config)
    }

    /// Opens a transactional engine over the stack.
    #[must_use]
    pub fn database(&self, config: DbConfig) -> Database {
        Database::new(Rc::clone(&self.stack), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_fs::FileSystem;

    #[test]
    fn default_scenario_builds_trail() {
        let built = StackBuilder::new().build().expect("build");
        assert!(built.trail.is_some());
        assert!(built.log_disk.is_some());
        assert_eq!(built.data_disks.len(), 3);
        // Boot noise is reset: measurements start clean.
        assert_eq!(built.log_disk.unwrap().with_stats(|s| s.writes), 0);
    }

    #[test]
    fn standard_scenario_has_no_log_device() {
        let built = StackBuilder::new()
            .standard()
            .scheduler(SchedulerKind::Fifo)
            .data_disks(1)
            .seed(7)
            .build()
            .expect("build");
        assert!(built.trail.is_none());
        assert_eq!(built.seed, 7);
    }

    #[test]
    fn armed_fault_plan_cuts_the_whole_stack() {
        use trail_sim::SimDuration;
        let mut built = StackBuilder::new()
            .data_disks(2)
            .data_profile(profiles::tiny_test_disk())
            .log_profile(profiles::tiny_test_disk())
            .faults(FaultPlan::power_cut_at(SimDuration::from_millis(5)))
            .build()
            .expect("build");
        assert_eq!(built.fault_clock.armed(), 1);
        built.sim.run();
        assert_eq!(built.fault_clock.fired(), 1);
        assert_eq!(built.fault_clock.unhandled(), 0);
        assert!(built.data_disks.iter().all(|d| !d.is_powered()));
        assert!(!built.log_disk.as_ref().unwrap().is_powered());
    }

    #[test]
    fn member_fault_degrades_the_volume() {
        use trail_sim::SimDuration;
        let mut built = StackBuilder::new()
            .standard()
            .data_disks(1)
            .data_profile(profiles::tiny_test_disk())
            .volumes(
                VolumeLayout::Raid1 {
                    read_policy: trail_volume::ReadPolicy::RoundRobin,
                },
                2,
            )
            .faults(FaultPlan::member_fail(0, 1, SimDuration::from_millis(2)))
            .build()
            .expect("build");
        built.sim.run();
        assert_eq!(built.fault_clock.unhandled(), 0);
        assert_eq!(built.volumes[0].failed_members(), vec![1]);
    }

    /// Writes one distinct pattern per device through the stack, reads each
    /// back, and returns what the reads delivered.
    fn round_trip(built: &mut BuiltStack) -> Vec<(Vec<u8>, Vec<u8>)> {
        use std::cell::RefCell;
        use trail_blockio::IoDone;
        use trail_disk::SECTOR_SIZE;
        use trail_sim::Delivered;
        (0..built.stack.devices())
            .map(|dev| {
                let bytes = vec![0x41 + dev as u8; 2 * SECTOR_SIZE];
                let got: Rc<RefCell<Option<Vec<u8>>>> = Rc::default();
                let written = Rc::clone(&got);
                let done = built.sim.completion(move |_, d: Delivered<IoDone>| {
                    d.expect("write delivered");
                    *written.borrow_mut() = Some(Vec::new());
                });
                built
                    .stack
                    .write(&mut built.sim, dev, 64, bytes.clone(), done)
                    .expect("write accepted");
                while got.borrow().is_none() {
                    assert!(built.sim.step(), "write on device {dev} stalled");
                }
                got.borrow_mut().take();
                let read = Rc::clone(&got);
                let done = built.sim.completion(move |_, d: Delivered<IoDone>| {
                    *read.borrow_mut() = d.expect("read delivered").data;
                });
                built
                    .stack
                    .read(&mut built.sim, dev, 64, 2, done)
                    .expect("read accepted");
                while got.borrow().is_none() {
                    assert!(built.sim.step(), "read on device {dev} stalled");
                }
                let back = got.borrow_mut().take().expect("read returned data");
                (bytes, back)
            })
            .collect()
    }

    #[test]
    fn every_log_device_builds_over_every_data_target() {
        let devices = 2;
        let logs = 2;
        let config = TrailConfig::default();
        let mirror = VolumeSpec {
            layout: VolumeLayout::Raid1 {
                read_policy: trail_volume::ReadPolicy::RoundRobin,
            },
            members: 2,
            per_instance: false,
        };
        let per_instance = VolumeSpec {
            per_instance: true,
            ..mirror
        };
        let cases = [
            (LogDevice::Trail { config }, None),
            (LogDevice::Trail { config }, Some(mirror)),
            (LogDevice::TrailMulti { logs, config }, None),
            (LogDevice::TrailMulti { logs, config }, Some(mirror)),
            (LogDevice::TrailMulti { logs, config }, Some(per_instance)),
            (LogDevice::Standard, None),
            (LogDevice::Standard, Some(mirror)),
        ];
        for (log_device, volume) in cases {
            let case = format!("{log_device:?} over {volume:?}");
            let mut built = Scenario {
                data_disks: devices,
                data_profile: profiles::tiny_test_disk(),
                log_profile: profiles::tiny_test_disk(),
                log_device: log_device.clone(),
                volume,
                ..Scenario::default()
            }
            .build()
            .unwrap_or_else(|e| panic!("{case}: {e}"));
            let (single, multi) = match log_device {
                LogDevice::Trail { .. } => (true, false),
                LogDevice::TrailMulti { .. } => (false, true),
                LogDevice::Standard => (false, false),
            };
            let want_logs: Vec<String> = match log_device {
                LogDevice::Trail { .. } => vec!["trail-log".into()],
                LogDevice::TrailMulti { .. } => (0..logs).map(|i| format!("log{i}")).collect(),
                LogDevice::Standard => Vec::new(),
            };
            let want_data: Vec<String> = match volume {
                None => (0..devices).map(|i| format!("data{i}")).collect(),
                Some(spec) => {
                    let tags: Vec<String> = if spec.per_instance {
                        (0..logs).map(|i| format!("i{i}")).collect()
                    } else {
                        vec![String::new()]
                    };
                    tags.iter()
                        .flat_map(|tag| {
                            (0..devices).flat_map(move |dev| {
                                (0..spec.members).map(move |m| format!("data{dev}{tag}m{m}"))
                            })
                        })
                        .collect()
                }
            };
            let names = |disks: &[Disk]| disks.iter().map(Disk::name).collect::<Vec<_>>();

            assert_eq!(built.stack.devices(), devices, "{case}");
            assert_eq!(names(&built.data_disks), want_data, "{case}");
            assert_eq!(names(&built.log_disks), want_logs, "{case}");
            assert_eq!(built.log_disk.is_some(), single, "{case}");
            assert_eq!(built.trail.is_some(), single, "{case}");
            assert_eq!(built.multi.is_some(), multi, "{case}");
            assert_eq!(
                built.volumes.len(),
                volume.map_or(0, |v| devices * if v.per_instance { logs } else { 1 }),
                "{case}"
            );
            for (dev, (wrote, read)) in round_trip(&mut built).into_iter().enumerate() {
                assert!(wrote == read, "{case}: device {dev} read back other bytes");
            }
        }
    }

    #[test]
    fn filesystems_and_database_mount_on_a_built_stack() {
        let mut built = StackBuilder::new()
            .standard()
            .data_disks(1)
            .build()
            .unwrap();
        let fs = built.extfs(0, 10_000).expect("format extfs");
        let _ = fs.create("x").expect("create");
        let lfs = built.lfs(0, LfsConfig::default());
        let _ = lfs.create("y").expect("create");
    }
}
