"""Pure numpy codec kernels (no Ray imports) for the encoder stack.

Codec ids used in stripe manifests map to these modules:

==============  =============================================================
id              kernel
==============  =============================================================
``rle2``        ORC RLEv2 integer stream (signed/unsigned)
``rle2_delta``  RLEv2 over first-order deltas within rows (token streams)
``for``         frame-of-reference + bit-pack
``planar``      frame-of-reference + byte-plane split (token streams)
``bytes``       raw little-endian fixed-width integers
``dict``        sorted dictionary (indexes stream + dict blob + lengths)
``direct_str``  concatenated UTF-8 + lengths stream
``fsst``        FSST symbol-table compression of a byte blob
``byterle``     ORC byte-level RLE
``boolrle``     boolean bitstream over byte RLE (validity/PRESENT)
``zlib``        ORC chunked zlib with store-uncompressed fallback
``zstd``        ORC chunked zstd, same framing as ``zlib`` (default outer)
``snappy``      ORC chunked snappy blocks (opt-in outer kind)
==============  =============================================================
"""
