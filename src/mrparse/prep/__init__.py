"""Framework-specific pre/post-processing."""

from .anchors import AnchorError, anchors_to_spans, spans_to_anchors
from .ucca import (decode_edge_label, decode_graph_attrs, encode_edge_label,
                   encode_graph_attrs, ucca_mark_implicit, ucca_strip_implicit)
from .eds import (MultiwordTable, apply_multiword, build_multiword_table,
                  eds_exchange_properties, eds_reduce, eds_restore)
from .amr import AmrTables, amr_postprocess, amr_preprocess

__all__ = [
    "AnchorError", "anchors_to_spans", "spans_to_anchors",
    "decode_edge_label", "decode_graph_attrs", "encode_edge_label",
    "encode_graph_attrs", "ucca_mark_implicit", "ucca_strip_implicit",
    "MultiwordTable", "apply_multiword", "build_multiword_table",
    "eds_exchange_properties", "eds_reduce", "eds_restore",
    "AmrTables", "amr_postprocess", "amr_preprocess",
]
