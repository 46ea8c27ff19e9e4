(** Domain-safety static analysis over compiler-emitted typedtrees.

    Dsafe reads the [.cmt]/[.cmti] files dune leaves under [_build] and
    produces a machine-checked inventory of everything that stands
    between this codebase and OCaml 5 domains:

    - every {e module-level mutable binding} (toplevel [ref],
      [Hashtbl], [Buffer], mutable-field records, arrays, [lazy], and
      mutable cells captured by returned closures) — each one is shared
      state the moment two domains run the read path;
    - {e banned constructs} ([Obj.magic], [Marshal.from_*] on wire
      input, [Random.self_init]);
    - {e read-path signature leaks}: mutable types reachable through
      the interfaces of [Snapshot] and [Csr], whose deep immutability
      the snapshot/epoch model depends on.

    Findings carry a stable id ("<source-file>:<Module.binding>") and
    are gated against a checked-in allowlist — the {e ratchet}: a
    finding without an entry fails the gate (new shared mutable state
    cannot slip in silently), and an entry without a finding is stale
    and also fails (the list can only shrink honestly). *)

(** {1 Findings} *)

(** Storage class of a mutable binding. *)
type mclass =
  | Ref_cell
  | Hashtable
  | Buffer_
  | Mutable_array
  | Bytes_
  | Mutable_record
  | Lazy_block
  | Queue_
  | Stack_
  | Weak_
  | Atomic_cell
  | Mutex_lock
  | Condition_var
  | Captured_state  (** mutable cell captured by a returned closure *)
  | Named_mutable of string
      (** a locally-declared record type with mutable fields, by its
          dotted type name *)

(** What a finding reports. *)
type kind =
  | Mutable_binding of mclass
  | Banned of string  (** the banned construct's name, e.g. ["Obj.magic"] *)
  | Signature_leak of string
      (** a mutable type constructor visible through a read-path
          interface *)

type finding = {
  id : string;  (** stable key: ["<source-file>:<Module.binding>"] *)
  file : string;  (** workspace-relative source path *)
  line : int;  (** 1-based; [0] for signature findings *)
  kind : kind;
  detail : string;  (** human-readable evidence (type, lines, reason) *)
}

(** {1 Scanning} *)

(** One compilation unit's typedtree, as read from a [.cmt] or [.cmti]. *)
type unit_info = {
  u_file : string;  (** workspace-relative source path *)
  u_modname : string;  (** e.g. ["Expfinder_graph__Traversal"] *)
  u_structure : Typedtree.structure option;  (** from a [.cmt] *)
  u_signature : Types.signature option;  (** from a [.cmti] *)
}

val annot_files : string list -> string list
(** Every [.cmt]/[.cmti] path under the roots, sorted. *)

val read_units : string list -> unit_info list
(** Every [.cmt]/[.cmti] under the roots, read and deduplicated by
    source file (byte and native builds can both leave annots). *)

val scan : ?mli_exempt:string list -> roots:string list -> unit -> finding list
(** Walk [roots] recursively for [.cmt]/[.cmti] files, deduplicate by
    source file, and run all three analyses.  [mli_exempt] lists source
    files (as workspace-relative paths, i.e. the shared [lint/mli.allow]
    entries) whose implementations are signature-only by design: they
    skip the mutable-binding inventory but still get the
    banned-construct sweep.  Executables' implementations
    ([Dune__exe__*] units, present after [dune build @check]) are
    skipped.  Findings come back sorted by (file, line, id). *)

(** {1 Allowlist and ratchet gate} *)

(** The guarding discipline a sanctioned site claims. *)
type discipline =
  | Hazard  (** known-shared and unguarded; tracked debt *)
  | Thread_confined  (** only ever touched from one thread *)
  | Guarded  (** protected by a [Mutex]/[Atomic] protocol *)
  | Epoch_published
      (** mutated only before publication; immutable once visible *)
  | Immutable_after_init
      (** written once during module initialisation, read-only after *)

val disciplines : (string * discipline) list
(** Every discipline by its allow-file tag. *)

(** One allow-file entry.  [lint/dead.allow] shares the format with its
    own tags (see {!Dead}). *)
type 'tag entry = {
  key : string;  (** must equal a finding id *)
  tag : 'tag;
  why : string;  (** free-form justification; required non-empty *)
}

type allow_entry = discipline entry

val load_entries : (string * 'tag) list -> string -> ('tag entry list, string) result
(** Parse an allow file of [<id> <tag> <justification...>] lines, the
    tag one of the given names; blank lines and [#] comments are
    skipped.  An entry without a tag or a justification is an error,
    which carries file:line context. *)

type ('f, 'tag) verdict = {
  allowed : ('f * 'tag entry) list;
  unallowed : 'f list;  (** findings with no allowlist entry *)
  stale : 'tag entry list;  (** entries matching no finding *)
}

type gate = (finding, discipline) verdict

val ratchet : id:('f -> string) -> allow:'tag entry list -> 'f list -> ('f, 'tag) verdict
(** Match findings to entries by [id f = key]. *)

val gate : allow:allow_entry list -> finding list -> gate

val gate_ok : ?fail_stale:bool -> ('f, 'tag) verdict -> bool
(** The ratchet verdict: true iff no unallowed findings and (unless
    [~fail_stale:false]) no stale entries. *)

(** {1 Reports} *)

val to_json : gate -> Expfinder_telemetry.Json.t
(** Machine-readable report: verdict, summary counts, and all three
    finding groups with their disciplines. *)

val pp_table : Format.formatter -> gate -> unit
(** Human-readable audit table grouped by gate outcome, with a
    per-discipline summary line. *)

val emit_allow : Format.formatter -> finding list -> unit
(** Print seed allowlist lines for every finding (bootstrap / "how do I
    sanction this?" path).  Intrinsically guarded sites get the
    [guarded] tag; everything else starts as [hazard] with a TODO
    justification for a human to re-tag. *)
