//! Replay tears its stack down: once `replay_stream` returns, nothing of
//! the stack it built is left alive.
//!
//! The replayed stacks stop with write-backs still queued behind the
//! log, and queued completions capture the components that own the
//! queues. The check installs a recorder and holds it weakly: every disk
//! and driver of the stack keeps a strong handle to it, so it outlives
//! the replay exactly when some disk of the stack does.

use std::io::Cursor;
use std::rc::Rc;

use trail::volume::VolumeLayout;
use trail_telemetry::{NullRecorder, RecorderHandle};
use trail_trace::{
    generate_stream, replay_stream, ReplayOptions, SyntheticSpec, TargetKind, TraceReader,
};

#[test]
fn replay_stream_frees_every_stack_disk() {
    let spec = SyntheticSpec {
        requests: 200,
        streams: 2,
        devices: 2,
        read_fraction: 0.3,
        ..SyntheticSpec::default()
    };
    let bytes = generate_stream(&spec, 16, Vec::new()).expect("encode");
    let raid5 = VolumeLayout::Raid5 { chunk_sectors: 8 };
    for target in [
        TargetKind::Standard,
        TargetKind::Trail,
        TargetKind::TrailMulti { logs: 2 },
        TargetKind::Ext2 { trail: true },
        TargetKind::Lfs { trail: true },
        TargetKind::Raid {
            layout: raid5,
            members: 3,
            trail: false,
        },
        TargetKind::Raid {
            layout: raid5,
            members: 3,
            trail: true,
        },
        TargetKind::RaidPerStream {
            layout: raid5,
            members: 3,
            logs: 2,
        },
    ] {
        let recorder: RecorderHandle = Rc::new(NullRecorder);
        let weak = Rc::downgrade(&recorder);
        let opts = ReplayOptions {
            target,
            recorder: Some(recorder),
            ..ReplayOptions::default()
        };
        let report = replay_stream(
            TraceReader::new(Cursor::new(bytes.clone())).expect("header"),
            &opts,
        )
        .expect("replay");
        assert_eq!(report.requests, 200, "{target:?}");
        drop(opts);
        assert!(
            weak.upgrade().is_none(),
            "{target:?}: a disk of the replayed stack outlived replay_stream"
        );
    }
}
