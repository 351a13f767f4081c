"""Offline language-model substrate.

GReaT and REaLTabFormer fine-tune a GPT-2 backbone on textual-encoded table
rows and then sample new rows from it.  The properties GReaTER's claims rest
on are (1) identically spelled tokens are indistinguishable to the model,
which is why repeated numerical labels ('1' in *Lunch* vs '1' in *Access
Device*) create false associations, and (2) the model learns co-occurrence
statistics of the training corpus and reproduces them at sampling time.

This subpackage provides an interpolated back-off n-gram language model with
the same interface (``fine_tune`` on a corpus, ``generate`` samples) and the
same two properties, so every GReaTER stage — encode, fine-tune, sample,
decode, inverse-map — executes end to end on a CPU with no external model
weights.
"""

from repro.llm.tokenizer import WordTokenizer, Vocabulary, SPECIAL_TOKENS, EncodedCorpus
from repro.llm.ngram_model import NGramLanguageModel, ModelConfig
from repro.llm.sampler import SamplerConfig, TemperatureSampler
from repro.llm.compiled import CompiledNGramModel
from repro.llm.engine import BatchGenerationEngine
from repro.llm.training import ArrayTrainedNGramModel, CorpusCounts, accumulate_counts
from repro.llm.finetune import FineTuneConfig, FineTuner
from repro.llm.embeddings import CooccurrenceEmbedding

__all__ = [
    "WordTokenizer",
    "Vocabulary",
    "SPECIAL_TOKENS",
    "EncodedCorpus",
    "NGramLanguageModel",
    "ModelConfig",
    "TemperatureSampler",
    "SamplerConfig",
    "CompiledNGramModel",
    "BatchGenerationEngine",
    "ArrayTrainedNGramModel",
    "CorpusCounts",
    "accumulate_counts",
    "FineTuner",
    "FineTuneConfig",
    "CooccurrenceEmbedding",
]
