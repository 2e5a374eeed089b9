"""orc_ray — a Ray-Data-native columnar lightweight-compression engine.

Re-creates the query/data-processing capabilities of the reference ORC
encoder stack (scritchley/orc) as streaming ``ray.data.Dataset`` pipelines:
per-column dictionary / RLEv2 / FSST / bit-packing / frame-of-reference
encoding with per-column-chunk codec auto-selection, stripe-like encoded
blobs + per-partition manifests with checkpoint/resume, and bit-identical
decode.

Layout:
  codecs/     pure numpy kernels (no Ray) — unit-testable, vectorized
  selector.py per-chunk statistics -> cheapest-codec choice
  stripe.py   encode a pyarrow batch -> blob + manifest row; decode back
  pipelines/  Ray Data wiring (encode, decode, verify, repartition, resume)
  sources/    token-table synthesis & derivation, partition planning
  functions/  text analysis, dedup, similarity search, multimodal stages
  state/      manifest/checkpoint helpers
"""

__version__ = "0.1.0"
