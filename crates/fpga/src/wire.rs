//! Bitstream wire format: a Xilinx-style packet encoding of bitstreams.
//!
//! The rest of the crate treats a bitstream as structured data; real
//! configuration ports consume a *byte stream* of command packets. This
//! module defines a simplified (documented, self-contained) wire format in
//! the spirit of the Virtex configuration protocol:
//!
//! ```text
//! [SYNC 0xAA995566]
//! [IDCODE word = hash of device name]
//! [KIND word: 0 = full, 1 = partial]
//! per frame:
//!   [FAR word: column << 16 | minor]        (Type-1-style address write)
//!   [LEN word: payload words]               (Type-2-style data header)
//!   [payload, zero-padded to 32-bit words]
//! [CRC word over everything after SYNC]
//! [DESYNC 0x0000000D]
//! ```
//!
//! The decoder verifies sync, device identity, structure, and CRC —
//! rejecting truncated or corrupted images, which is exactly what the
//! vendor API's "size check" crudely approximated.

use crate::bitstream::{Bitstream, BitstreamKind};
use crate::device::Device;
use crate::error::FpgaError;
use crate::frames::FrameAddress;
use hprc_obs::artifact::crc32;

/// Synchronization word opening every bitstream.
pub const SYNC_WORD: u32 = 0xAA99_5566;
/// Desynchronization word closing every bitstream.
pub const DESYNC_WORD: u32 = 0x0000_000D;

/// FNV-1a over the device name: our stand-in for the JTAG IDCODE.
fn idcode(device_name: &str) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for b in device_name.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn push_word(out: &mut Vec<u8>, w: u32) {
    out.extend_from_slice(&w.to_be_bytes());
}

fn read_word(data: &[u8], offset: usize) -> Result<u32, FpgaError> {
    data.get(offset..offset + 4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or_else(|| FpgaError::BitstreamMismatch("truncated wire image".into()))
}

/// Encodes a bitstream into its wire image.
/// ```
/// use hprc_fpga::bitstream::Bitstream;
/// use hprc_fpga::floorplan::Floorplan;
/// use hprc_fpga::frames::ConfigMemory;
/// use hprc_fpga::wire::{decode, encode};
///
/// let fp = Floorplan::xd1_dual_prr();
/// let cols = fp.prrs[0].region.column_indices();
/// let mut mem = ConfigMemory::blank(&fp.device);
/// mem.fill_region_pattern(&cols, 7).unwrap();
/// let bs = Bitstream::partial_module_based(&fp.device, &mem, &cols).unwrap();
///
/// let wire = encode(&bs);
/// let back = decode(&wire, &fp.device).unwrap();
/// assert_eq!(back.frames, bs.frames);
/// ```
pub fn encode(bitstream: &Bitstream) -> Vec<u8> {
    let mut out = Vec::new();
    push_word(&mut out, SYNC_WORD);
    let body_start = out.len();
    push_word(&mut out, idcode(&bitstream.device_name));
    push_word(
        &mut out,
        match bitstream.kind {
            BitstreamKind::Full => 0,
            BitstreamKind::Partial { .. } => 1,
        },
    );
    for (addr, payload) in &bitstream.frames {
        push_word(&mut out, (addr.column as u32) << 16 | addr.minor);
        let words = payload.len().div_ceil(4) as u32;
        push_word(&mut out, words);
        out.extend_from_slice(payload);
        // Pad to a word boundary.
        out.resize(out.len() + (4 - payload.len() % 4) % 4, 0);
    }
    let crc = crc32(&out[body_start..]);
    push_word(&mut out, crc);
    push_word(&mut out, DESYNC_WORD);
    out
}

/// Decodes a wire image back into a bitstream for `device`.
///
/// # Errors
///
/// [`FpgaError::BitstreamMismatch`] on missing sync/desync, device
/// mismatch, structural damage, or CRC failure; frame addresses are
/// validated against the device geometry.
pub fn decode(data: &[u8], device: &Device) -> Result<Bitstream, FpgaError> {
    if read_word(data, 0)? != SYNC_WORD {
        return Err(FpgaError::BitstreamMismatch("missing sync word".into()));
    }
    if data.len() < 16 {
        return Err(FpgaError::BitstreamMismatch("image too short".into()));
    }
    let crc_offset = data.len() - 8;
    if read_word(data, crc_offset + 4)? != DESYNC_WORD {
        return Err(FpgaError::BitstreamMismatch("missing desync word".into()));
    }
    let stored_crc = read_word(data, crc_offset)?;
    let computed = crc32(&data[4..crc_offset]);
    if stored_crc != computed {
        return Err(FpgaError::BitstreamMismatch(format!(
            "CRC mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
        )));
    }
    if read_word(data, 4)? != idcode(&device.name) {
        return Err(FpgaError::BitstreamMismatch(format!(
            "IDCODE does not match device {}",
            device.name
        )));
    }
    let kind_word = read_word(data, 8)?;

    let frame_bytes = device.frame_bytes as usize;
    let mut frames = Vec::new();
    let mut columns = Vec::new();
    let mut offset = 12;
    while offset < crc_offset {
        let far = read_word(data, offset)?;
        let len_words = read_word(data, offset + 4)? as usize;
        offset += 8;
        let payload_len = len_words * 4;
        if offset + payload_len > crc_offset {
            return Err(FpgaError::BitstreamMismatch(
                "frame payload runs past the CRC".into(),
            ));
        }
        let column = (far >> 16) as usize;
        let minor = far & 0xFFFF;
        let col = device
            .columns
            .get(column)
            .ok_or_else(|| FpgaError::BadFrameAddress(format!("column {column}")))?;
        if minor >= col.frames {
            return Err(FpgaError::BadFrameAddress(format!(
                "minor {minor} in column {column}"
            )));
        }
        let payload = data[offset..offset + frame_bytes.min(payload_len)].to_vec();
        if payload.len() != frame_bytes {
            return Err(FpgaError::BitstreamMismatch(format!(
                "frame payload {} != device frame size {frame_bytes}",
                payload.len()
            )));
        }
        offset += payload_len;
        if !columns.contains(&column) {
            columns.push(column);
        }
        frames.push((FrameAddress { column, minor }, payload));
    }

    Ok(Bitstream {
        device_name: device.name.clone(),
        kind: if kind_word == 0 {
            BitstreamKind::Full
        } else {
            BitstreamKind::Partial { columns }
        },
        frames,
        overhead_bytes: if kind_word == 0 {
            device.full_overhead_bytes
        } else {
            device.partial_overhead_bytes
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::frames::ConfigMemory;

    fn partial() -> (Device, Bitstream) {
        let fp = Floorplan::xd1_dual_prr();
        let cols = fp.prrs[0].region.column_indices();
        let mut mem = ConfigMemory::blank(&fp.device);
        mem.fill_region_pattern(&cols, 9).unwrap();
        let bs = Bitstream::partial_module_based(&fp.device, &mem, &cols).unwrap();
        (fp.device, bs)
    }

    #[test]
    fn roundtrip_partial() {
        let (device, bs) = partial();
        let wire = encode(&bs);
        let back = decode(&wire, &device).unwrap();
        assert_eq!(back.frames, bs.frames);
        assert_eq!(back.kind, bs.kind);
    }

    #[test]
    fn roundtrip_full() {
        let device = Device::xc2vp30();
        let mem = ConfigMemory::blank(&device);
        let bs = Bitstream::full(&device, &mem).unwrap();
        let wire = encode(&bs);
        let back = decode(&wire, &device).unwrap();
        assert_eq!(back.kind, BitstreamKind::Full);
        assert_eq!(back.frames.len(), bs.frames.len());
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let (device, bs) = partial();
        let mut wire = encode(&bs);
        let mid = wire.len() / 2;
        wire[mid] ^= 0x40;
        let err = decode(&wire, &device).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn truncated_image_rejected() {
        let (device, bs) = partial();
        let wire = encode(&bs);
        for cut in [3usize, 9, wire.len() / 2, wire.len() - 1] {
            assert!(decode(&wire[..cut], &device).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_device_rejected() {
        let (_, bs) = partial();
        let wire = encode(&bs);
        let other = Device::xc2vp30();
        let err = decode(&wire, &other).unwrap_err();
        assert!(err.to_string().contains("IDCODE"), "{err}");
    }

    #[test]
    fn missing_sync_rejected() {
        let (device, bs) = partial();
        let mut wire = encode(&bs);
        wire[0] = 0;
        assert!(decode(&wire, &device).is_err());
    }

    #[test]
    fn bad_frame_address_rejected() {
        let (device, bs) = partial();
        let mut tampered = bs.clone();
        tampered.frames[0].0.column = 9999;
        let wire = encode(&tampered);
        let err = decode(&wire, &device).unwrap_err();
        assert!(err.to_string().contains("column 9999") || err.to_string().contains("bad frame"));
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (the classic check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn idcode_is_per_device() {
        assert_ne!(idcode("XC2VP50"), idcode("XC2VP30"));
    }
}
