//! Scaffolding shared by the net integration tests that spawn socket
//! clusters: the mock payload [`Msg`] with its model size and frame codec,
//! and [`with_watchdog`], which turns a hung accept or a lost reply into a
//! failed test within seconds instead of a wedged `cargo test`.

#![allow(dead_code)]

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use topk_net::socket::{FrameCodec, WireError};
use topk_net::wire::{get_varint, put_varint, WireSize};

/// Mock protocol payload: 16 model bits, one varint on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg(pub u64);

/// The one value [`Msg`]'s codec mis-encodes, as an overlong varint that no
/// decoder accepts (the undecodable-reply test sends it; no other test
/// does).
pub const GARBLED: u64 = 0xbad;

impl WireSize for Msg {
    fn wire_bits(&self) -> u32 {
        16
    }
}

impl FrameCodec for Msg {
    fn encode_frame(&self, buf: &mut Vec<u8>) {
        if self.0 == GARBLED {
            buf.extend_from_slice(&[0x80; 10]);
            buf.push(0x01);
        } else {
            put_varint(buf, self.0);
        }
    }

    fn decode_frame(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_varint(buf).map(Msg).ok_or(WireError::Malformed {
            what: "truncated msg varint".into(),
        })
    }
}

/// Run `body` on a helper thread and panic if it has not finished within
/// `secs` seconds. A panic inside `body` is re-raised with its own payload.
pub fn with_watchdog<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = body();
        let _ = tx.send(());
        out
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Err(RecvTimeoutError::Timeout) => panic!("test body exceeded {secs}s watchdog"),
        // Finished, or panicked (the sender dropped while unwinding).
        _ => handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
    }
}
