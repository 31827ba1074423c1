// R3 positive: panicking `Buf` getters in a codec-scoped file.
use bytes::Buf;

fn decode(mut buf: &[u8]) -> (u8, u32, f64) {
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    (buf.get_u8(), buf.get_u32_le(), buf.get_f64_le())
}
