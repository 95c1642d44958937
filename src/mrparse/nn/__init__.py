from .core import BiLSTM, CharEncoder, Embedding, LSTMCell, Module

__all__ = ["BiLSTM", "CharEncoder", "Embedding", "LSTMCell", "Module"]
