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

val mclass_name : mclass -> string

(** What a finding reports. *)
type kind =
  | Mutable_binding of mclass
  | Banned of string  (** the banned construct's name, e.g. ["Obj.magic"] *)
  | Signature_leak of string
      (** a mutable type constructor visible through a read-path
          interface *)

val kind_name : kind -> string

val intrinsically_guarded : kind -> bool
(** [Atomic.t]/[Mutex.t]/[Condition.t] sites: still mutable state (they
    stay in the inventory) but the guarding discipline is carried by
    the type itself. *)

type finding = {
  id : string;  (** stable key: ["<source-file>:<Module.binding>"] *)
  file : string;  (** workspace-relative source path *)
  line : int;  (** 1-based; [0] for signature findings *)
  kind : kind;
  detail : string;  (** human-readable evidence (type, lines, reason) *)
}

(** {1 Scanning} *)

val scan : ?mli_exempt:string list -> roots:string list -> unit -> finding list
(** Walk [roots] recursively for [.cmt]/[.cmti] files, deduplicate by
    source file, and run all three analyses.  [mli_exempt] lists source
    files (as workspace-relative paths, i.e. the shared [lint/mli.allow]
    entries) whose implementations are signature-only by design: they
    skip the mutable-binding inventory but still get the
    banned-construct sweep.  Findings come back sorted by
    (file, line, id). *)

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

val discipline_name : discipline -> string

val discipline_of_name : string -> discipline option

type allow_entry = {
  key : string;  (** must equal a finding id *)
  discipline : discipline;
  why : string;  (** free-form justification; required non-empty *)
}

val parse_allow_line : string -> (allow_entry option, string) result
(** One allowlist line: [<id> <discipline> <justification...>].
    Blank lines and [#] comments yield [Ok None]. *)

val load_allow : string -> (allow_entry list, string) result
(** Parse a whole allow file; the error carries file:line context. *)

type gate = {
  allowed : (finding * allow_entry) list;
  unallowed : finding list;  (** findings with no allowlist entry *)
  stale : allow_entry list;  (** entries matching no finding *)
}

val gate : allow:allow_entry list -> finding list -> gate

val gate_ok : ?fail_stale:bool -> gate -> bool
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
