#!/usr/bin/env python3
"""Regenerate the corrupt-checkpoint corpus under tests/data/ckpt/.

Each file is malformed in exactly one way and must be rejected by
ckpt::decode() with its own typed ErrorCode (the fixed validation
order documented in src/ckpt/checkpoint.hh). The corpus is committed;
rerun this script only when the container format changes, and keep
tests/ckpt/corrupt_corpus_test.cc's filename->code mapping in sync.

Container layout (little-endian):
  0  magic "GCKP"            4 bytes
  4  format version          u32
  8  config fingerprint      u64
 16  payload length          u64
 24  payload checksum        u64 (FNV-1a over payload)
 32  header checksum         u64 (FNV-1a over bytes 0..31)
 40  payload
"""

import pathlib
import struct

FNV_OFFSET = 1469598103934665603
FNV_PRIME = 1099511628211
MASK = (1 << 64) - 1

FORMAT_VERSION = 1
KNOWN_FP = 0xC0FFEE0DDEADBEEF

# Payload bytes are opaque to decode(); any deterministic run works.
PAYLOAD = (b"graphene checkpoint corpus payload v1 " * 2)[:64]


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK
    return h


def encode(fp: int, payload: bytes, version: int = FORMAT_VERSION) -> bytes:
    head = b"GCKP" + struct.pack(
        "<IQQQ", version, fp, len(payload), fnv1a(payload))
    assert len(head) == 32
    return head + struct.pack("<Q", fnv1a(head)) + payload


def main() -> None:
    out = pathlib.Path(__file__).resolve().parent.parent / \
        "tests" / "data" / "ckpt"
    out.mkdir(parents=True, exist_ok=True)

    valid = encode(KNOWN_FP, PAYLOAD)

    # A pristine artifact, decoded successfully by the corpus test to
    # prove the corpus base is not trivially broken.
    (out / "valid.gckp").write_bytes(valid)

    # 1. Shorter than the fixed header -> CkptTruncated (step 1).
    (out / "truncated_header.gckp").write_bytes(valid[:30])

    # 2. Intact header whose declared payload is cut short
    #    -> CkptTruncated (step 5).
    (out / "truncated_payload.gckp").write_bytes(
        valid[:40 + len(PAYLOAD) // 2])

    # 3. Wrong magic -> CkptBadHeader (step 2).
    bad_magic = bytearray(valid)
    bad_magic[0] ^= 0xFF
    (out / "bad_magic.gckp").write_bytes(bytes(bad_magic))

    # 4. One bit flipped inside the header (config fingerprint field);
    #    stored header checksum now disagrees -> CkptBadHeader (step 3).
    flip_header = bytearray(valid)
    flip_header[9] ^= 0x04
    (out / "bitflip_header.gckp").write_bytes(bytes(flip_header))

    # 5. Unsupported format version with a *valid, recomputed* header
    #    checksum so only step 4 fires -> CkptVersionSkew.
    (out / "version_skew.gckp").write_bytes(
        encode(KNOWN_FP, PAYLOAD, version=99))

    # 6. One bit flipped inside the payload; header untouched
    #    -> CkptBadPayload (step 6).
    flip_payload = bytearray(valid)
    flip_payload[40 + 7] ^= 0x10
    (out / "bitflip_payload.gckp").write_bytes(bytes(flip_payload))

    # 7. Valid artifact with trailing garbage appended
    #    -> CkptBadPayload (step 6: trailing bytes).
    (out / "trailing_garbage.gckp").write_bytes(
        valid + b"\xde\xad\xbe\xef")

    # 8. Fully self-consistent artifact from a *different* config
    #    -> CkptConfigMismatch (step 7) when the expected fingerprint
    #    is supplied.
    (out / "config_mismatch.gckp").write_bytes(
        encode((KNOWN_FP + 1) & MASK, PAYLOAD))

    print(f"wrote corpus to {out}")


if __name__ == "__main__":
    main()
