//! Inputs that cross a trust boundary must decode to a value or a typed
//! error. A length field may never size an allocation on its own: these
//! fragments declare counts near `u32::MAX` over a few bytes of input, and
//! decoding them must fail cleanly instead of aborting the process.

use bombdroid::dex::wire;

#[test]
fn oversized_counts_in_fragments_are_errors() {
    let hostile: [&[u8]; 3] = [
        // One instruction: a switch on v0 claiming 2^32 - 1 arms.
        &[1, 0, 0, 0, 7, 0, 0, 0xff, 0xff, 0xff, 0xff],
        // A fragment claiming 2^32 - 1 instructions.
        &[0xff, 0xff, 0xff, 0xff, 8, 0, 0, 0, 0],
        // A switch claiming 2^28 arms with only one arm after it.
        &[
            1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0x10, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
        ],
    ];
    for bytes in hostile {
        assert!(
            wire::decode_fragment(bytes).is_err(),
            "{bytes:02x?} must be rejected"
        );
    }
}
