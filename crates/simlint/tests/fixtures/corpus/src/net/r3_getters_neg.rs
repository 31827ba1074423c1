// R3 negative: the fallible getters, and panicking ones confined to a
// `#[cfg(test)]` module, are fine in codec scope.
use bytes::{Buf, TryGetError};

fn decode(mut buf: &[u8]) -> Result<(u8, u32, f64), TryGetError> {
    let mut magic = [0u8; 4];
    buf.try_copy_to_slice(&mut magic)?;
    Ok((buf.try_get_u8()?, buf.try_get_u32_le()?, buf.try_get_f64_le()?))
}

#[cfg(test)]
mod tests {
    use bytes::Buf;

    #[test]
    fn tests_may_panic() {
        let mut buf: &[u8] = &[7];
        assert_eq!(buf.get_u8(), 7);
    }
}
