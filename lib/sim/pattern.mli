(** Test pattern batches and sources.

    A batch packs up to 64 patterns: one 64-bit word per primary input,
    bit [l] of word [i] being input [i]'s value in pattern (lane) [l].
    Unused lanes of a short batch are zero. *)

type batch = {
  n_inputs : int;
  n_patterns : int;  (** 1..64 *)
  bits : int64 array;  (** one word per input *)
}

val pattern : batch -> int -> bool array
(** Extract lane [l] as a plain input vector. *)

val of_vectors : bool array array -> batch list
(** Pack explicit vectors (all of equal width) into batches. *)

type source = unit -> batch
(** Infinite stream of batches (callers bound the number of patterns). *)

val equiprobable : Rt_util.Rng.t -> n_inputs:int -> source
(** Conventional random test: every input independently 0.5. *)

val weighted : Rt_util.Rng.t -> float array -> source
(** The paper's optimized random test: input [i] is 1 with probability
    [w.(i)]. *)

val take : source -> int -> batch list
(** [take src n] is batches holding exactly [n] patterns in total. *)

(** {1 Wide blocks}

    A block is [words] consecutive batches from a narrow {!source} packed
    into one flat unboxed buffer — up to [64 * words] patterns simulated
    per good-machine pass.  Filling pulls the source in stream order, so
    the pattern sequence (and every downstream statistic) is identical to
    consuming the same source one batch at a time. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Flat lane-word buffers, input- or node-major: row [i]'s words live at
    [i * words + w]. *)

type block = {
  width : int;  (** primary inputs *)
  words : int;  (** W: capacity in 64-pattern words *)
  counts : int array;  (** valid lanes per word; [0] past [filled] *)
  mutable filled : int;  (** words holding patterns (0..words) *)
  mutable total : int;  (** sum of [counts] *)
  data : words;  (** input-major, [width * words] *)
}

val max_block_words : int

val default_block_words : unit -> int
(** The [OPTPROB_BLOCK_WORDS] environment variable clamped to
    [1 .. max_block_words]; 4 when unset or unparsable. *)

val resolve_block_words : int option -> int
(** Clamp an explicit width, or {!default_block_words} when [None] — the
    policy behind every [?block_words] argument. *)

val word_mask : int -> int64
(** Ones in the [n] lowest lanes ([-1L] for [n >= 64]). *)

val make_block : n_inputs:int -> words:int -> block
(** A zeroed block; reuse it across {!fill_block} calls. *)

val fill_block : ?words:int -> source -> block -> needed:int -> unit
(** Pull up to [words] batches (default [block.words], the capacity;
    [1 <= words <= block.words]), stopping once [needed] patterns are
    packed, into the block, overwriting its previous contents.  Word [i]
    of input row [p] stays at [p * block.words + i] whatever the limit.  Each
    pulled batch becomes one word, truncated — like the narrow consumers —
    to the patterns still needed; lanes past a word's count are unmasked
    garbage, so consumers must apply {!word_mask}.  At most [needed]
    patterns and at least one word result ([needed > 0] required). *)
