//! Fixture: panics and indexing in a panic-free file fire.
pub fn decode(bytes: &[u8]) -> u16 {
    let first = bytes[0];
    let second = bytes.get(1).copied().unwrap();
    if first > 0x7F {
        panic!("bad tag");
    }
    u16::from_le_bytes([first, second])
}

pub fn decode_error(r: Result<u8, u8>, s: Result<u8, u8>) -> (u8, u8) {
    let a = r.unwrap_err();
    let b = s.expect_err("tag must be rejected");
    (a, b)
}
