//! Benchmark-side instrumentation for the traced runs: host-time spans
//! around calls into each layer's public functions, wrappers that put
//! those spans on the `BlockStack` and `BlockDevice` boundaries of a
//! stack the benchmark builds itself, and a telemetry recorder that only
//! counts. None of it is installed in an untraced run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use trail_blockio::{BlockDevice, IoDone, IoRequest, RequestId, SharedBlockDevice, TapHandle};
use trail_core::TrailError;
use trail_db::BlockStack;
use trail_disk::{DiskError, Lba};
use trail_sim::{Completion, SimDuration, Simulator};
use trail_telemetry::{Event, EventKind, Layer, Recorder, RecorderHandle, StreamId};

/// A layer whose public calls the harness times.
#[derive(Clone, Copy)]
pub enum Span {
    /// `Database::execute`.
    Db = 0,
    /// `BlockStack` calls into the Trail driver.
    Core = 1,
    /// `BlockDevice::submit` calls from the Trail driver into its targets.
    Blockio = 2,
}

const SPANS: usize = 3;

/// Host time per span: `total` covers every call, `own` excludes the time
/// spent in spans nested inside it.
#[derive(Default)]
pub struct SpanTimes {
    pub total: [Duration; SPANS],
    pub own: [Duration; SPANS],
}

#[derive(Default)]
struct SpanState {
    on: bool,
    times: SpanTimes,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<Duration>,
}

thread_local! {
    static SPANS_STATE: RefCell<SpanState> = RefCell::new(SpanState::default());
}

/// Starts span accounting on this thread, clearing earlier totals.
pub fn spans_start() {
    SPANS_STATE.with(|s| {
        *s.borrow_mut() = SpanState {
            on: true,
            ..SpanState::default()
        }
    });
}

/// Stops span accounting and returns the totals.
pub fn spans_stop() -> SpanTimes {
    SPANS_STATE.with(|s| std::mem::take(&mut *s.borrow_mut()).times)
}

/// Runs `f`, charging its host time to `span` when accounting is on.
pub fn span<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let on = SPANS_STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.on {
            s.open.push(Duration::ZERO);
        }
        s.on
    });
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    SPANS_STATE.with(|s| {
        let mut s = s.borrow_mut();
        let children = s.open.pop().expect("span frame pushed above");
        let i = span as usize;
        s.times.total[i] += elapsed;
        s.times.own[i] += elapsed.saturating_sub(children);
        if let Some(parent) = s.open.last_mut() {
            *parent += elapsed;
        }
    });
    out
}

/// A `BlockStack` whose calls are timed as [`Span::Core`].
pub struct TimedStack(pub Rc<dyn BlockStack>);

impl BlockStack for TimedStack {
    fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        span(Span::Core, || self.0.write(sim, dev, lba, data, done))
    }

    fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        span(Span::Core, || self.0.read(sim, dev, lba, count, done))
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
        span(Span::Core, || {
            self.0.write_tagged(sim, dev, lba, data, stream, done)
        })
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
        span(Span::Core, || {
            self.0.read_tagged(sim, dev, lba, count, stream, done)
        })
    }

    fn pending_work(&self) -> usize {
        self.0.pending_work()
    }

    fn devices(&self) -> usize {
        self.0.devices()
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        self.0.set_recorder(recorder);
    }

    fn set_tap(&self, tap: TapHandle) {
        self.0.set_tap(tap);
    }
}

/// A `BlockDevice` whose submissions are timed as [`Span::Blockio`].
#[derive(Debug)]
pub struct TimedDevice(pub SharedBlockDevice);

impl BlockDevice for TimedDevice {
    fn submit(
        &self,
        sim: &mut Simulator,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<RequestId, DiskError> {
        span(Span::Blockio, || self.0.submit(sim, req, done))
    }

    fn capacity_sectors(&self) -> u64 {
        self.0.capacity_sectors()
    }

    fn pending(&self) -> usize {
        self.0.pending()
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        self.0.set_recorder(recorder);
    }

    fn set_tap(&self, tap: TapHandle, dev: u32) {
        self.0.set_tap(tap, dev);
    }
}

/// The role a simulated disk plays, read off its name.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Log,
    Data,
    Member,
}

impl Role {
    pub const ALL: [Role; 3] = [Role::Log, Role::Data, Role::Member];

    pub fn name(self) -> &'static str {
        match self {
            Role::Log => "log",
            Role::Data => "data",
            Role::Member => "member",
        }
    }

    /// `trail-log` is the log disk; volume members are named
    /// `data<dev>m<member>`; plain data disks `data<dev>`.
    fn of(disk: &str) -> Role {
        if disk.contains("log") {
            Role::Log
        } else if disk.trim_start_matches("data").contains('m') {
            Role::Member
        } else {
            Role::Data
        }
    }
}

/// Mechanical work one disk reported through its disk-layer events.
#[derive(Clone, Copy, Default)]
pub struct DiskWork {
    pub commands: u64,
    pub sectors: u64,
    pub seek: SimDuration,
    pub rotation: SimDuration,
    pub transfer: SimDuration,
}

/// What the counting recorder saw.
#[derive(Default)]
pub struct Counts {
    /// Events per layer, indexed like [`LAYERS`].
    pub events: [u64; 4],
    pub disks: BTreeMap<String, DiskWork>,
    pub enqueues: u64,
    pub max_queue_depth: u32,
    pub completes: u64,
    pub queue_wait: SimDuration,
    pub batch_flushes: u64,
    pub repositions: u64,
    pub writebacks: u64,
}

/// The telemetry layers, in [`Counts::events`] order.
pub const LAYERS: [Layer; 4] = [Layer::Disk, Layer::BlockIo, Layer::Core, Layer::Db];

impl Counts {
    /// Per-role sums and the number of distinct disks seen in each role.
    pub fn by_role(&self, role: Role) -> (DiskWork, usize) {
        let mut sum = DiskWork::default();
        let mut disks = 0;
        for w in self
            .disks
            .iter()
            .filter(|(name, _)| Role::of(name) == role)
            .map(|(_, w)| w)
        {
            disks += 1;
            sum.commands += w.commands;
            sum.sectors += w.sectors;
            sum.seek += w.seek;
            sum.rotation += w.rotation;
            sum.transfer += w.transfer;
        }
        (sum, disks)
    }
}

/// A recorder that aggregates events as they arrive instead of keeping
/// them, so a traced run's memory does not grow with its length.
#[derive(Default)]
pub struct CountingRecorder(RefCell<Counts>);

impl CountingRecorder {
    pub fn take(&self) -> Counts {
        std::mem::take(&mut *self.0.borrow_mut())
    }
}

impl Recorder for CountingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let mut c = self.0.borrow_mut();
        let layer = LAYERS
            .iter()
            .position(|&l| l == event.layer)
            .expect("every layer is listed");
        c.events[layer] += 1;
        match event.kind {
            EventKind::Seek { .. } => disk(&mut c, event.source).seek += event.dur,
            EventKind::RotWait => disk(&mut c, event.source).rotation += event.dur,
            EventKind::Transfer { sectors } => {
                let d = disk(&mut c, event.source);
                d.commands += 1;
                d.sectors += u64::from(sectors);
                d.transfer += event.dur;
            }
            EventKind::Enqueue { depth } => {
                c.enqueues += 1;
                c.max_queue_depth = c.max_queue_depth.max(depth);
            }
            EventKind::Complete { breakdown } => {
                c.completes += 1;
                c.queue_wait += breakdown.queue;
            }
            EventKind::BatchFlush { .. } => c.batch_flushes += 1,
            EventKind::Reposition { .. } => c.repositions += 1,
            EventKind::WriteBack { .. } => c.writebacks += 1,
            _ => {}
        }
    }
}

fn disk(c: &mut Counts, name: String) -> &mut DiskWork {
    c.disks.entry(name).or_default()
}
