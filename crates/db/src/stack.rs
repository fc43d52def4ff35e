//! The storage-stack abstraction: the same database engine runs on Trail
//! or on the standard disk subsystem, which is exactly the comparison
//! Table 2 makes (`EXT2+Trail` vs. `EXT2` vs. `EXT2+GC`).

use std::rc::Rc;

use trail_blockio::{
    Clook, IoDone, IoRequest, Priority, Scheduler, SharedBlockDevice, StandardDriver, TapHandle,
};
use trail_core::{MultiTrail, TrailDriver, TrailError};
use trail_disk::{Disk, Lba};
use trail_sim::{Completion, Simulator};
use trail_telemetry::{RecorderHandle, StreamId};

/// A stack of block devices the database reads and writes through.
///
/// `dev` indexes are stable across the stack's lifetime; writes are
/// synchronous in the database's sense — the completion is delivered when
/// the stack guarantees durability (for Trail, that is the *log-disk*
/// write). A rejected or abandoned submission cancels its token.
pub trait BlockStack {
    /// Submits a durable write of `data` at `lba` on device `dev`.
    ///
    /// # Errors
    ///
    /// Rejects malformed requests without side effects.
    fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError>;

    /// Submits a read of `count` sectors at `lba` on device `dev`.
    ///
    /// # Errors
    ///
    /// Rejects malformed requests without side effects.
    fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError>;

    /// [`write`](BlockStack::write) with an explicit stream tag.
    ///
    /// The default implementation drops the tag and delegates to
    /// [`write`](BlockStack::write); stacks that can carry streams to
    /// their taps or routing decisions override it.
    ///
    /// # Errors
    ///
    /// As [`write`](BlockStack::write).
    fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let _ = stream;
        self.write(sim, dev, lba, data, done)
    }

    /// [`read`](BlockStack::read) with an explicit stream tag; defaults
    /// to dropping the tag like [`write_tagged`](BlockStack::write_tagged).
    ///
    /// # Errors
    ///
    /// As [`read`](BlockStack::read).
    fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let _ = stream;
        self.read(sim, dev, lba, count, done)
    }

    /// Outstanding work inside the stack (used to drain at shutdown).
    fn pending_work(&self) -> usize;

    /// Number of devices.
    fn devices(&self) -> usize;

    /// Attaches a telemetry recorder to every layer below this stack.
    /// The default implementation drops the recorder (no instrumentation).
    fn set_recorder(&self, _recorder: RecorderHandle) {}

    /// Installs a workload-capture tap ([`trail_blockio::SubmitTap`]) that
    /// observes every request submitted through this stack, tagged with
    /// the stack-level device index. The default implementation drops the
    /// tap (no capture).
    fn set_tap(&self, _tap: TapHandle) {}
}

/// The Trail stack: every device sits behind one [`TrailDriver`].
#[derive(Clone)]
pub struct TrailStack {
    driver: TrailDriver,
    devices: usize,
}

impl TrailStack {
    /// Wraps a running Trail driver serving `devices` data disks.
    pub fn new(driver: TrailDriver, devices: usize) -> Self {
        TrailStack { driver, devices }
    }
}

impl BlockStack for TrailStack {
    fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.driver.write(sim, dev, lba, data, done)
    }

    fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.driver.read(sim, dev, lba, count, done)
    }

    fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.driver.write_tagged(sim, dev, lba, data, stream, done)
    }

    fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.driver.read_tagged(sim, dev, lba, count, stream, done)
    }

    fn pending_work(&self) -> usize {
        self.driver.pending_work()
    }

    fn devices(&self) -> usize {
        self.devices
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        self.driver.set_recorder(recorder);
    }

    fn set_tap(&self, tap: TapHandle) {
        self.driver.set_tap(tap);
    }
}

/// The baseline stack: each device is a plain queueing driver, or any
/// other block target such as a `trail-volume` RAID array. Every write
/// pays its target's full cost synchronously — full seek + rotational
/// latency at its address, and for RAID-5 the read-modify-write parity
/// cycle — which is the standard-stack side of every Trail comparison.
#[derive(Clone)]
pub struct StandardStack {
    targets: Vec<SharedBlockDevice>,
}

impl StandardStack {
    /// Builds a baseline stack over `disks` with C-LOOK scheduling and no
    /// read priority (Linux-of-the-era behavior).
    pub fn new(disks: Vec<Disk>) -> Self {
        Self::with_policy(disks, || Box::new(Clook::default()), Priority::None)
    }

    /// Builds a baseline stack with an explicit scheduling policy;
    /// `make_scheduler` is called once per disk.
    pub fn with_policy(
        disks: Vec<Disk>,
        mut make_scheduler: impl FnMut() -> Box<dyn Scheduler>,
        priority: Priority,
    ) -> Self {
        Self::with_targets(
            disks
                .into_iter()
                .map(|d| {
                    Rc::new(StandardDriver::with_policy(d, make_scheduler(), priority))
                        as SharedBlockDevice
                })
                .collect(),
        )
    }

    /// Builds a stack where device `dev` is `targets[dev]`.
    pub fn with_targets(targets: Vec<SharedBlockDevice>) -> Self {
        StandardStack { targets }
    }
}

impl BlockStack for StandardStack {
    fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.write_tagged(sim, dev, lba, data, StreamId::UNTAGGED, done)
    }

    fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.read_tagged(sim, dev, lba, count, StreamId::UNTAGGED, done)
    }

    fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let tgt = self.targets.get(dev).ok_or(TrailError::BadDevice)?;
        tgt.submit(sim, IoRequest::write(lba, data).tagged(stream), done)
            .map(|_| ())
            .map_err(TrailError::Disk)
    }

    fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let tgt = self.targets.get(dev).ok_or(TrailError::BadDevice)?;
        tgt.submit(sim, IoRequest::read(lba, count).tagged(stream), done)
            .map(|_| ())
            .map_err(TrailError::Disk)
    }

    fn pending_work(&self) -> usize {
        self.targets.iter().map(|t| t.pending()).sum()
    }

    fn devices(&self) -> usize {
        self.targets.len()
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        for t in &self.targets {
            t.set_recorder(Rc::clone(&recorder));
        }
    }

    fn set_tap(&self, tap: TapHandle) {
        for (dev, t) in self.targets.iter().enumerate() {
            t.set_tap(Rc::clone(&tap), dev as u32);
        }
    }
}

/// A Trail-array stack: every device sits behind a [`MultiTrail`] (one
/// Trail instance per log disk, shared data disks). Stream tags reach the
/// array's router, so [`trail_core::LogRouting::StreamAffinity`] can pin
/// each stream to one log disk.
#[derive(Clone)]
pub struct MultiTrailStack {
    multi: MultiTrail,
    devices: usize,
}

impl MultiTrailStack {
    /// Wraps a running Trail array serving `devices` data disks.
    pub fn new(multi: MultiTrail, devices: usize) -> Self {
        MultiTrailStack { multi, devices }
    }
}

impl BlockStack for MultiTrailStack {
    fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.multi.write(sim, dev, lba, data, done)
    }

    fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.multi.read(sim, dev, lba, count, done)
    }

    fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.multi.write_tagged(sim, dev, lba, data, stream, done)
    }

    fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.multi.read_tagged(sim, dev, lba, count, stream, done)
    }

    fn pending_work(&self) -> usize {
        self.multi.pending_work()
    }

    fn devices(&self) -> usize {
        self.devices
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        self.multi.set_recorder(recorder);
    }

    fn set_tap(&self, tap: TapHandle) {
        self.multi.set_tap(tap);
    }
}

/// Convenience alias used throughout the engine.
pub type SharedStack = Rc<dyn BlockStack>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use trail_disk::{profiles, SECTOR_SIZE};

    #[test]
    fn standard_stack_round_trips() {
        let mut sim = Simulator::new();
        let stack = StandardStack::new(vec![
            Disk::new("a", profiles::tiny_test_disk()),
            Disk::new("b", profiles::tiny_test_disk()),
        ]);
        assert_eq!(stack.devices(), 2);
        let hit = Rc::new(Cell::new(false));
        let h = Rc::clone(&hit);
        let done = sim.completion(|_, _| {});
        stack
            .write(&mut sim, 1, 9, vec![0x3C; SECTOR_SIZE], done)
            .unwrap();
        sim.run();
        let done = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
            assert_eq!(d.expect("read delivered").data.unwrap()[0], 0x3C);
            h.set(true);
        });
        stack.read(&mut sim, 1, 9, 1, done).unwrap();
        sim.run();
        assert!(hit.get());
        assert_eq!(stack.pending_work(), 0);
    }

    #[test]
    fn standard_stack_rejects_bad_device() {
        let mut sim = Simulator::new();
        let stack = StandardStack::new(vec![Disk::new("a", profiles::tiny_test_disk())]);
        let done = sim.completion(|_, _| {});
        assert!(matches!(
            stack.write(&mut sim, 7, 0, vec![0; SECTOR_SIZE], done),
            Err(TrailError::BadDevice)
        ));
        let done = sim.completion(|_, _| {});
        assert!(matches!(
            stack.read(&mut sim, 7, 0, 1, done),
            Err(TrailError::BadDevice)
        ));
    }

    #[test]
    fn trail_stack_round_trips() {
        use trail_core::{format_log_disk, FormatOptions, TrailConfig};
        let mut sim = Simulator::new();
        let log = Disk::new("log", profiles::tiny_test_disk());
        let data = Disk::new("d", profiles::tiny_test_disk());
        format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
        let (drv, _) =
            TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).unwrap();
        let stack = TrailStack::new(drv.clone(), 1);
        let done = sim.completion(|_, d: trail_sim::Delivered<IoDone>| {
            assert!(d.expect("durable").latency().as_millis_f64() < 5.0);
        });
        stack
            .write(&mut sim, 0, 3, vec![0x7E; SECTOR_SIZE], done)
            .unwrap();
        drv.run_until_quiescent(&mut sim);
        assert_eq!(stack.pending_work(), 0);
        let got = Rc::new(Cell::new(0u8));
        let g = Rc::clone(&got);
        let done = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
            g.set(d.expect("read delivered").data.unwrap()[0]);
        });
        stack.read(&mut sim, 0, 3, 1, done).unwrap();
        sim.run();
        assert_eq!(got.get(), 0x7E);
    }
}
