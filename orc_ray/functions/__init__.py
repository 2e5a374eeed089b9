"""Large-scale training-data pipeline operations over the document /
embedding tables: text analysis, deduplication, similarity search,
multimodal column stages. All are vectorized batch functions run as Ray
Data tasks (``map_batches``); a stage's broadcast inputs ride its
``fn_kwargs``."""
