//! The frame decoder allocates nothing larger than the frame it reads, even
//! when a length inside the frame claims more.  A counting allocator records
//! the largest single allocation the calling thread makes; this file holds
//! one test so that no other test shares the allocator while it runs.

use sigma_service::codec::{decode_request, encode_request, CodecError, MAX_FRAME_BYTES};
use sigma_service::{Operation, RequestEnvelope};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct PeakAlloc;

// SAFETY: every call is forwarded unchanged to `System`.  The only addition
// is an update of a const-initialised thread-local `Cell`, which neither
// allocates nor panics (`try_with` skips it while the thread is torn down).
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc` above, i.e. by `System`, for
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

#[test]
fn codec_inner_length_beyond_the_frame_allocates_nothing_larger_than_it() {
    let payload_len = 4096;
    let req = RequestEnvelope::new(1, "acme", Operation::Stats).with_payload(vec![7; payload_len]);
    let mut body = encode_request(&req).unwrap();
    // The payload length is the u32 right before the payload: claim the cap.
    let at = body.len() - payload_len - 4;
    body[at..at + 4].copy_from_slice(&MAX_FRAME_BYTES.to_le_bytes());

    PEAK.with(|peak| peak.set(0));
    let err = decode_request(&body).unwrap_err();
    let peak = PEAK.with(Cell::get);
    assert!(matches!(err, CodecError::Malformed(_)), "{err}");
    assert!(
        peak <= body.len(),
        "decoder allocated {peak} bytes for a {}-byte frame",
        body.len()
    );
}
