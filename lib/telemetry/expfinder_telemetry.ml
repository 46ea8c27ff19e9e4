(* Whether a context that is not sampled records spans.  Metric cells
   always record; only [Trace.collect] reads this. *)
let on = ref false

let set_enabled b = on := b

let enabled () = !on

(* Process start time, captured at module initialisation: the base of
   the uptime gauge and the postmortem header. *)
let start_unix = Unix.gettimeofday ()

let now_us () = 1e6 *. Unix.gettimeofday ()

let time f =
  let t0 = now_us () in
  let result = f () in
  (result, (now_us () -. t0) /. 1000.0)

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

(* A dependency-free JSON value, emitter and parser: everything the
   observability layer serializes (metric registries, span trees, bench
   reports, flight-recorder dumps) goes through this one module, and
   [bench-diff] reads reports back with the same code. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* nan/inf have no JSON representation; emit null so consumers see an
     explicit absence instead of a parse error. *)
  let add_float buf f =
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.12g" f)

  let to_string ?(pretty = false) v =
    let buf = Buffer.create 256 in
    let newline depth =
      Buffer.add_char buf '\n';
      for _ = 1 to depth do
        Buffer.add_string buf "  "
      done
    in
    let rec go depth = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (string_of_bool b)
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float f -> add_float buf f
      | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
      | Arr [] -> Buffer.add_string buf "[]"
      | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then newline (depth + 1);
            go (depth + 1) item)
          items;
        if pretty then newline depth;
        Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then newline (depth + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            if pretty then Buffer.add_char buf ' ';
            go (depth + 1) item)
          fields;
        if pretty then newline depth;
        Buffer.add_char buf '}'
    in
    go 0 v;
    if pretty then Buffer.add_char buf '\n';
    Buffer.contents buf

  exception Parse_error of string

  let of_string text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> incr pos
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let s = String.sub text !pos 4 in
      pos := !pos + 4;
      match int_of_string_opt ("0x" ^ s) with
      | Some v -> v
      | None -> fail "bad \\u escape"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> incr pos
        | Some '\\' ->
          incr pos;
          (match peek () with
          | Some '"' ->
            incr pos;
            Buffer.add_char buf '"'
          | Some '\\' ->
            incr pos;
            Buffer.add_char buf '\\'
          | Some '/' ->
            incr pos;
            Buffer.add_char buf '/'
          | Some 'n' ->
            incr pos;
            Buffer.add_char buf '\n'
          | Some 'r' ->
            incr pos;
            Buffer.add_char buf '\r'
          | Some 't' ->
            incr pos;
            Buffer.add_char buf '\t'
          | Some 'b' ->
            incr pos;
            Buffer.add_char buf '\b'
          | Some 'f' ->
            incr pos;
            Buffer.add_char buf '\012'
          | Some 'u' ->
            incr pos;
            let cp = hex4 () in
            (* Surrogates would need pairing; we never emit them, so map
               a stray one to U+FFFD instead of producing bad UTF-8. *)
            add_utf8 buf (if cp >= 0xd800 && cp <= 0xdfff then 0xfffd else cp)
          | _ -> fail "bad escape");
          loop ()
        | Some c ->
          incr pos;
          Buffer.add_char buf c;
          loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let numeric = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
      while (match peek () with Some c when numeric c -> true | _ -> false) do
        incr pos
      done;
      let tok = String.sub text start (!pos - start) in
      if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok then
        match float_of_string_opt tok with Some f -> Float f | None -> fail "bad number"
      else
        match int_of_string_opt tok with
        | Some v -> Int v
        | None -> (
          match float_of_string_opt tok with Some f -> Float f | None -> fail "bad number")
    in
    let rec parse_value depth =
      if depth > 512 then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              members ((key, v) :: acc)
            | Some '}' ->
              incr pos;
              Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              elements (v :: acc)
            | Some ']' ->
              incr pos;
              Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "unexpected end of input"
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

  let str_opt = function Str s -> Some s | _ -> None

  let int_opt = function Int n -> Some n | _ -> None

  let float_opt = function Float f -> Some f | Int n -> Some (float_of_int n) | _ -> None

  let list_opt = function Arr l -> Some l | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                  *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  (* Atomic cell: counters are bumped from every worker domain (the
     parallel evaluation paths tally locally and flush once per region,
     but the serving pool still increments per-request counters
     concurrently).  fetch_and_add keeps totals exact — the old plain
     cell lost increments under concurrency. *)
  type t = { cname : string; v : int Atomic.t }

  let create cname = { cname; v = Atomic.make 0 }

  let add c n =
    let before = Atomic.fetch_and_add c.v n in
    (* Saturate instead of wrapping; the set races other adds but any
       interleaving still lands on max_int. *)
    if before > max_int - n then Atomic.set c.v max_int

  let incr c = add c 1

  let value c = Atomic.get c.v

  let reset c = Atomic.set c.v 0
end

module Gauge = struct
  type t = { gname : string; v : int Atomic.t }

  let create gname = { gname; v = Atomic.make 0 }

  let set g n = Atomic.set g.v n

  let add g n = ignore (Atomic.fetch_and_add g.v n : int)

  let value g = Atomic.get g.v

  let reset g = Atomic.set g.v 0
end

(* ------------------------------------------------------------------ *)
(* Log-scale histograms                                                 *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Geometric buckets, 8 per doubling, over [lo, lo * 2^(nbuckets/8)):
     bucket i holds samples in [lo * 2^(i/8), lo * 2^((i+1)/8)).  With
     lo = 1e-9 and 560 buckets the range spans 1e-9 .. ~1e12, enough
     for nanoseconds-as-seconds up to pair counts in the billions. *)
  let lo = 1e-9

  let per_doubling = 8.0

  let nbuckets = 560

  type t = {
    hname : string;
    buckets : int array;
    mutable count : int;
    (* sum, min, max — kept in a float array so recording never boxes. *)
    state : float array;
    (* Guards every field above: observations arrive from all worker
       domains, and min/max/count updates are read-modify-write, so a
       lone Atomic would not do.  Readers take the lock too — summaries
       are scrape-rate, not hot-path. *)
    hm : Mutex.t;
  }

  let create hname =
    {
      hname;
      buckets = Array.make nbuckets 0;
      count = 0;
      state = [| 0.0; 0.0; 0.0 |];
      hm = Mutex.create ();
    }

  let bucket_of v =
    if v <= lo then 0
    else
      let i = int_of_float (Float.log2 (v /. lo) *. per_doubling) in
      if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

  let upper_bound i = lo *. Float.exp2 (float_of_int (i + 1) /. per_doubling)

  let observe h v =
    Mutex.lock h.hm;
    h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
    h.state.(0) <- h.state.(0) +. v;
    if h.count = 0 || v < h.state.(1) then h.state.(1) <- v;
    if h.count = 0 || v > h.state.(2) then h.state.(2) <- v;
    h.count <- h.count + 1;
    Mutex.unlock h.hm

  let locked h f =
    Mutex.lock h.hm;
    let r = f () in
    Mutex.unlock h.hm;
    r

  let count h = locked h (fun () -> h.count)

  let sum h = locked h (fun () -> h.state.(0))

  let min_value h = locked h (fun () -> if h.count = 0 then nan else h.state.(1))

  let max_value h = locked h (fun () -> if h.count = 0 then nan else h.state.(2))

  (* Resolve a rank against an arbitrary log-bucket count array (shared
     with the sliding-window aggregator, which merges several per-second
     bucket arrays before asking for percentiles). *)
  let rank_in_buckets buckets ~rank ~mn ~mx =
    let seen = ref 0 and i = ref 0 in
    while !seen < rank && !i < nbuckets do
      seen := !seen + buckets.(!i);
      if !seen < rank then incr i
    done;
    Float.min mx (Float.max mn (upper_bound !i))

  let percentile h p =
    locked h (fun () ->
        if h.count = 0 then nan
        else
          let p = Float.min 1.0 (Float.max 0.0 p) in
          let mn = h.state.(1) and mx = h.state.(2) in
          (* The extremes are tracked exactly; only interior percentiles
             pay the bucket-resolution error. *)
          if p = 0.0 then mn
          else if p = 1.0 then mx
          else
            let rank =
              Stdlib.max 1 (int_of_float (ceil (p *. float_of_int h.count)))
            in
            rank_in_buckets h.buckets ~rank ~mn ~mx)

  let reset h =
    locked h (fun () ->
        Array.fill h.buckets 0 nbuckets 0;
        h.count <- 0;
        h.state.(0) <- 0.0;
        h.state.(1) <- 0.0;
        h.state.(2) <- 0.0)
end

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type metric =
    | M_counter of Counter.t
    | M_gauge of Gauge.t
    | M_histogram of Histogram.t

  (* [cells] holds every counter and gauge cell in name order, so a
     snapshot is one pass of [Atomic.get] instead of a fold and a sort.
     It is a fresh array, never mutated once published, rebuilt under
     the lock only when a counter or gauge is first registered. *)
  type registry = {
    table : (string, metric) Hashtbl.t;
    mutable cells : (string * int Atomic.t) array;
  }

  let registry = { table = Hashtbl.create 64; cells = [||] }

  (* The sampler thread enumerates the registry on every tick while the
     connection handler registers gauges lazily; Hashtbl offers no
     atomicity whatsoever under that interleaving (a resize mid-fold is
     a crash).  Every touch of [registry] goes through this lock; the
     individual Counter/Gauge cells stay lock-free as before.  Callbacks
     run under the lock never re-enter the registry. *)
  let registry_mutex = Mutex.create ()

  let with_registry f = Mutex.protect registry_mutex f

  (* Sorted enumeration for the exporters (to_json/pp here, Prometheus
     render, timeseries sampling): the fold happens under the lock, the
     caller's rendering does not. *)
  let rows () =
    with_registry (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry.table [])
    |> List.sort compare

  (* Called under the lock. *)
  let rebuild_cells () =
    registry.cells <-
      Hashtbl.fold
        (fun name m acc ->
          match m with
          | M_counter c -> (name, c.Counter.v) :: acc
          | M_gauge g -> (name, g.Gauge.v) :: acc
          | M_histogram _ -> acc)
        registry.table []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> Array.of_list

  let counter name =
    with_registry (fun () ->
        match Hashtbl.find_opt registry.table name with
        | Some (M_counter c) -> c
        | Some _ ->
          invalid_arg ("Telemetry.Metrics.counter: " ^ name ^ " is not a counter")
        | None ->
          let c = Counter.create name in
          Hashtbl.replace registry.table name (M_counter c);
          rebuild_cells ();
          c)

  let gauge name =
    with_registry (fun () ->
        match Hashtbl.find_opt registry.table name with
        | Some (M_gauge g) -> g
        | Some _ -> invalid_arg ("Telemetry.Metrics.gauge: " ^ name ^ " is not a gauge")
        | None ->
          let g = Gauge.create name in
          Hashtbl.replace registry.table name (M_gauge g);
          rebuild_cells ();
          g)

  let histogram name =
    with_registry (fun () ->
        match Hashtbl.find_opt registry.table name with
        | Some (M_histogram h) -> h
        | Some _ ->
          invalid_arg ("Telemetry.Metrics.histogram: " ^ name ^ " is not a histogram")
        | None ->
          let h = Histogram.create name in
          Hashtbl.replace registry.table name (M_histogram h);
          h)

  let counters_snapshot () =
    let cells = with_registry (fun () -> registry.cells) in
    Array.fold_right (fun (name, v) acc -> (name, Atomic.get v) :: acc) cells []

  (* A merge walk over two name-sorted lists: names only in [before]
     are skipped, names only in [after] count from zero. *)
  let rec delta ~before ~after =
    match (before, after) with
    | _, [] -> []
    | [], (name, v) :: after ->
      if v = 0 then delta ~before ~after else (name, v) :: delta ~before ~after
    | (bname, bv) :: brest, (name, v) :: arest ->
      let c = String.compare bname name in
      if c < 0 then delta ~before:brest ~after
      else
        let d = if c = 0 then v - bv else v in
        let before = if c = 0 then brest else before in
        if d = 0 then delta ~before ~after:arest else (name, d) :: delta ~before ~after:arest

  let reset_all () =
    with_registry (fun () ->
        Hashtbl.iter
          (fun _ -> function
            | M_counter c -> Counter.reset c
            | M_gauge g -> Gauge.reset g
            | M_histogram h -> Histogram.reset h)
          registry.table)

  let to_json () =
    let rows = rows () in
    Json.Obj
      (List.map
         (fun (name, m) ->
           ( name,
             match m with
             | M_counter c -> Json.Obj [ ("kind", Json.Str "counter"); ("value", Json.Int (Counter.value c)) ]
             | M_gauge g -> Json.Obj [ ("kind", Json.Str "gauge"); ("value", Json.Int (Gauge.value g)) ]
             | M_histogram h ->
               Json.Obj
                 [
                   ("kind", Json.Str "histogram");
                   ("count", Json.Int (Histogram.count h));
                   ("sum", Json.Float (Histogram.sum h));
                   ("min", Json.Float (Histogram.min_value h));
                   ("max", Json.Float (Histogram.max_value h));
                   ("p50", Json.Float (Histogram.percentile h 0.50));
                   ("p95", Json.Float (Histogram.percentile h 0.95));
                   ("p99", Json.Float (Histogram.percentile h 0.99));
                 ] ))
         rows)

  let pp ppf () =
    let rows = rows () in
    List.iter
      (fun (name, m) ->
        match m with
        | M_counter c -> Format.fprintf ppf "%-40s %d@." name (Counter.value c)
        | M_gauge g -> Format.fprintf ppf "%-40s %d (gauge)@." name (Gauge.value g)
        | M_histogram h ->
          if Histogram.count h = 0 then Format.fprintf ppf "%-40s (empty)@." name
          else
            Format.fprintf ppf
              "%-40s count=%d sum=%.3f min=%.4f p50=%.4f p95=%.4f p99=%.4f max=%.4f@."
              name (Histogram.count h) (Histogram.sum h) (Histogram.min_value h)
              (Histogram.percentile h 0.50) (Histogram.percentile h 0.95)
              (Histogram.percentile h 0.99) (Histogram.max_value h))
      rows
end

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type t = {
    sname : string;
    sstart : float; (* absolute epoch microseconds *)
    mutable dur_us : float;
    mutable rev_attrs : (string * string) list;
    mutable rev_kids : t list;
  }

  let make ?(attrs = []) sname =
    { sname; sstart = now_us (); dur_us = 0.0; rev_attrs = List.rev attrs; rev_kids = [] }

  let duration_ms s = s.dur_us /. 1000.0

  let attrs s = List.rev s.rev_attrs

  let children s = List.rev s.rev_kids

  (* Start time relative to an explicit origin (used by the exporter). *)
  let start_rel ~origin s = s.sstart -. origin

  let pp_tree ppf s =
    let rec go indent s =
      Format.fprintf ppf "%s%-*s %8.3f ms" indent
        (Stdlib.max 1 (28 - String.length indent))
        s.sname (duration_ms s);
      List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%s" k v) (attrs s);
      Format.pp_print_newline ppf ();
      List.iter (go (indent ^ "  ")) (children s)
    in
    go "" s

  let json_escape = Json.escape

  let rec to_json s =
    Json.Obj
      [
        ("name", Json.Str s.sname);
        ("duration_ms", Json.Float (duration_ms s));
        ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (attrs s)));
        ("children", Json.Arr (List.map to_json (children s)));
      ]

  (* Inverse of [to_json], as far as the serialized shape allows: start
     times are not serialized, so reconstructed spans carry durations
     (and the tree shape) but a zero origin.  That is all the trace
     explorer needs — self-times and the critical path are functions of
     durations alone. *)
  let rec of_json json =
    match Option.bind (Json.member "name" json) Json.str_opt with
    | None -> None
    | Some sname ->
      let dur_ms =
        match Option.bind (Json.member "duration_ms" json) Json.float_opt with
        | Some f -> f
        | None -> 0.0
      in
      let attrs =
        match Json.member "attrs" json with
        | Some (Json.Obj kv) ->
          List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.str_opt v)) kv
        | _ -> []
      in
      let kids =
        match Json.member "children" json with
        | Some (Json.Arr l) -> List.filter_map of_json l
        | _ -> []
      in
      Some
        {
          sname;
          sstart = 0.0;
          dur_us = dur_ms *. 1000.0;
          rev_attrs = List.rev attrs;
          rev_kids = List.rev kids;
        }

  (* Time spent in a span itself, outside any child span (clamped at 0:
     buckets of a torn read or rounding can make children sum past the
     parent). *)
  let self_ms s =
    Float.max 0.0
      (duration_ms s -. List.fold_left (fun acc k -> acc +. duration_ms k) 0.0 (children s))

  (* The critical path: from the root, repeatedly descend into the
     longest child.  With only one clock (durations, no concurrency
     inside a request yet) the longest chain is the chain that bounds
     the request's latency. *)
  let critical_path s =
    let rec go acc s =
      match children s with
      | [] -> List.rev (s :: acc)
      | kids ->
        let longest =
          List.fold_left (fun best k -> if duration_ms k > duration_ms best then k else best)
            (List.hd kids) kids
        in
        go (s :: acc) longest
    in
    go [] s

  let pp_annotated ppf s =
    let crit = critical_path s in
    let on_path sp = List.memq sp crit in
    let rec go indent sp =
      Format.fprintf ppf "%s%s %-*s %9.3f ms  self %9.3f ms"
        (if on_path sp then "*" else " ")
        indent
        (Stdlib.max 1 (30 - String.length indent))
        sp.sname (duration_ms sp) (self_ms sp);
      List.iter (fun (k, v) -> Format.fprintf ppf "  %s=%s" k v) (attrs sp);
      Format.pp_print_newline ppf ();
      List.iter (go (indent ^ "  ")) (children sp)
    in
    go "" s

  (* Chrome lanes: with a trace context, derive the process lane from
     the trace id and the thread lane from the root span id so exports
     from concurrent requests land in distinct lanes instead of
     interleaving.  Without one (single-query [explain --trace]) the
     output stays byte-identical to the historical pid/tid 1/1. *)
  let lane_of_hex hex =
    let n = Stdlib.min 8 (String.length hex) in
    let acc = ref 0 in
    String.iter
      (fun c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> 10 + Char.code c - Char.code 'a'
          | 'A' .. 'F' -> 10 + Char.code c - Char.code 'A'
          | _ -> 0
        in
        acc := ((!acc * 16) + d) land 0x3FFFFFFF)
      (String.sub hex 0 n);
    1 + !acc

  let to_chrome_json ?trace_id ?span_id s =
    let pid = match trace_id with Some t when t <> "" -> lane_of_hex t | _ -> 1 in
    let tid = match span_id with Some i when i <> "" -> lane_of_hex i | _ -> pid in
    let origin = s.sstart in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "[";
    let first = ref true in
    let rec emit sp =
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"expfinder\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":%d,\"tid\":%d"
           (json_escape sp.sname) (start_rel ~origin sp) sp.dur_us pid tid);
      (match attrs sp with
      | [] -> ()
      | kvs ->
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",";
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          kvs;
        Buffer.add_string buf "}");
      Buffer.add_string buf "}";
      List.iter emit (children sp)
    in
    emit s;
    Buffer.add_string buf "]\n";
    Buffer.contents buf
end

(* The tracer.  Request identity is an explicit, immutable context —
   128-bit trace id plus 64-bit root-span id, minted per request (or
   adopted from the wire) — and the chain of open spans under the
   active [collect] is domain-local state, not a process-global: two
   domains (the future multicore serving path) each trace their own
   request without ever observing the other's stack. *)
module Trace = struct
  type ctx = {
    trace_id : string;  (* 32 lowercase hex chars; "" for the ambient context *)
    span_id : string;  (* 16 lowercase hex chars; "" for the ambient context *)
    sampled : bool;  (* request asked for span recording even when tracing is off *)
  }

  (* Ids are a per-process base plus a bijective mix of this counter.
     [Random.self_init] is banned (dsafe), so the base is one MD5 of wall
     clock and pid, taken when the module initialises; every mint after
     that is a counter step, a mix and a hex render.  Not secure, but
     unique, which is all a correlation id needs. *)
  let seq = Atomic.make 0

  (* The base's two halves, as 63-bit keys. *)
  let key_hi, key_lo =
    let base =
      Digest.string (Printf.sprintf "%.6f|%d" (Unix.gettimeofday ()) (Unix.getpid ()))
    in
    (Int64.to_int (String.get_int64_le base 0), Int64.to_int (String.get_int64_le base 8))

  (* A bijection of 63-bit ints (the SplitMix64 finaliser, its odd
     multipliers cut to 63 bits): each xor-shift and each multiply by an
     odd constant is invertible modulo 2^63, so distinct counter values
     give distinct words. *)
  let mix x =
    let x = (x lxor (x lsr 30)) * 0x3F58_476D_1CE4_E5B9 in
    let x = (x lxor (x lsr 27)) * 0x14D0_49BB_1331_11EB in
    x lxor (x lsr 31)

  (* The next counter value, mixed and keyed: distinct per call, never
     zero (the one counter value whose word would be zero is skipped). *)
  let rec next_word key =
    let w = mix (Atomic.fetch_and_add seq 1) lxor key in
    if w = 0 then next_word key else w

  let hex_digits = "0123456789abcdef"

  (* The 63-bit word [w] as 16 lowercase hex digits, most significant
     first, into [b] at [off]. *)
  let put_hex b off w =
    for i = 0 to 15 do
      Bytes.unsafe_set b (off + i) hex_digits.[(w lsr (4 * (15 - i))) land 0xF]
    done

  (* A fresh word first, then the process's key: distinct within the
     process and, by the key, across processes. *)
  let mint_trace_id () =
    let b = Bytes.create 32 in
    put_hex b 0 (next_word key_hi);
    put_hex b 16 key_lo;
    Bytes.unsafe_to_string b

  let mint_span_id () =
    let b = Bytes.create 16 in
    put_hex b 0 (next_word key_lo);
    Bytes.unsafe_to_string b

  let is_hex s =
    s <> "" && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

  let all_zero s = String.for_all (fun c -> c = '0') s

  let valid_trace_id s = String.length s = 32 && is_hex s && not (all_zero s)

  let valid_span_id s = String.length s = 16 && is_hex s && not (all_zero s)

  (* The default root context: identity-free, never sampled.  A
     [collect] under it records only while the global flag is on, and
     nothing carries an id. *)
  let ambient = { trace_id = ""; span_id = ""; sampled = false }

  let make ?(sampled = false) ?trace_id () =
    let tid =
      match trace_id with
      | Some t when valid_trace_id t -> t
      | Some _ | None -> mint_trace_id ()
    in
    { trace_id = tid; span_id = mint_span_id (); sampled }

  (* Wire forms.  [to_wire] is the compact "traceid-spanid" carried in
     the newline-JSON protocol's "trace" field; [to_traceparent] is the
     W3C-style "00-traceid-spanid-01" used on the HTTP endpoints.
     [of_wire] accepts either, case-insensitively; anything else is
     None and the caller mints a fresh context instead of erroring. *)
  let to_wire ctx = ctx.trace_id ^ "-" ^ ctx.span_id

  let to_traceparent ctx = Printf.sprintf "00-%s-%s-01" ctx.trace_id ctx.span_id

  let of_wire ?(sampled = false) s =
    let s = String.lowercase_ascii (String.trim s) in
    let adopt tid = Some { trace_id = tid; span_id = mint_span_id (); sampled } in
    match String.split_on_char '-' s with
    | [ tid; sid ] when valid_trace_id tid && valid_span_id sid -> adopt tid
    | [ ver; tid; sid; flags ]
      when String.length ver = 2
           && is_hex ver
           && valid_trace_id tid
           && valid_span_id sid
           && String.length flags = 2
           && is_hex flags ->
      adopt tid
    | _ -> None

  (* The open-span chain of the *current domain's* in-flight [collect].
     [Domain.DLS] rather than a global ref: the chain is request-local
     by construction (one request per domain at a time), so confining
     it to the domain removes the cross-thread hazard outright — the
     remaining allowlist entry records the confinement, not a risk. *)
  let open_spans : Span.t list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

  let spans () = Domain.DLS.get open_spans

  let set_spans l = Domain.DLS.set open_spans l

  (* Run [f] with [s] pushed on the chain, then close [s], pop it and
     attach it under [parent], if any. *)
  let run parent (s : Span.t) f =
    set_spans (s :: spans ());
    let finish () =
      s.Span.dur_us <- now_us () -. s.Span.sstart;
      (match spans () with
      | top :: rest when top == s -> set_spans rest
      | _ -> ());
      Option.iter (fun (p : Span.t) -> p.Span.rev_kids <- s :: p.Span.rev_kids) parent
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e

  (* Open a root span for [ctx] and run [f] under it.  Records when the
     process-wide flag is on *or* the context itself asked to be
     sampled, so a single traced request on an otherwise-quiet server
     still yields a span tree.  Nested collects degrade to child
     spans. *)
  let collect ctx ?attrs name f =
    if not (!on || ctx.sampled) then (f (), None)
    else
      match spans () with
      | [] ->
        let s = Span.make ?attrs name in
        (run None s f, Some s)
      | parent :: _ -> (run (Some parent) (Span.make ?attrs name) f, None)
end

(* Child spans attach under the innermost open span of the current
   domain; with no open root (this request is not being recorded) the
   body runs bare. *)
let with_span ?attrs name f =
  match Trace.spans () with
  | [] -> f ()
  | parent :: _ -> Trace.run (Some parent) (Span.make ?attrs name) f

let annotate k v =
  match Trace.spans () with
  | [] -> ()
  | s :: _ -> s.Span.rev_attrs <- (k, v) :: s.Span.rev_attrs

let annotate_int k v = if Trace.spans () <> [] then annotate k (string_of_int v)

(* ------------------------------------------------------------------ *)
(* Continuous folded-stack profiler                                     *)
(* ------------------------------------------------------------------ *)

(* Always-on aggregation of completed span trees into collapsed-stack
   lines ("frame;frame;frame <self-ns>", the flamegraph.pl/speedscope
   input format).  Unlike the flight recorder this never stores whole
   spans: each finished root is folded immediately into a bounded table
   of stack -> {count, inclusive ns, self ns}, so memory is O(distinct
   stacks) regardless of traffic volume.  Stacks are prefixed with the
   recording domain so cross-domain time splits are visible. *)
module Profile = struct
  type entry = {
    mutable p_count : int;
    mutable p_incl_ns : float;
    mutable p_self_ns : float;
  }

  type row = { stack : string; count : int; incl_ns : float; self_ns : float }

  (* Bound on distinct stacks; a stack first seen at the bound is
     dropped and counted. *)
  let max_stacks = 4096

  (* All profiler state behind one lock: the fold table plus fold/drop
     counters.  Folds are rare (one per completed root span) and each
     holds the lock for O(tree) small hash operations, so a plain
     mutex is cheap; readers (exporters, /profile.folded) snapshot
     under the same lock. *)
  type profile_state = {
    plock : Mutex.t;
    tbl : (string, entry) Hashtbl.t;
    mutable folded : int;
    mutable dropped : int;
  }

  let state =
    { plock = Mutex.create (); tbl = Hashtbl.create 256; folded = 0; dropped = 0 }

  (* Frames may contain user-chosen span names; ';' and ' ' are the
     folded format's structural characters, so they are rewritten. *)
  let sanitize name =
    String.map (fun c -> if c = ';' || c = ' ' then '_' else c) name

  (* Called with [plock] held. *)
  let touch stack ~incl_ns ~self_ns =
    match Hashtbl.find_opt state.tbl stack with
    | Some e ->
      e.p_count <- e.p_count + 1;
      e.p_incl_ns <- e.p_incl_ns +. incl_ns;
      e.p_self_ns <- e.p_self_ns +. self_ns
    | None ->
      if Hashtbl.length state.tbl >= max_stacks then
        state.dropped <- state.dropped + 1
      else
        Hashtbl.replace state.tbl stack
          { p_count = 1; p_incl_ns = incl_ns; p_self_ns = self_ns }

  let record (root : Span.t) =
    let domain = (Domain.self () :> int) in
    let prefix0 = Printf.sprintf "domain-%d" domain in
    Mutex.protect state.plock (fun () ->
        state.folded <- state.folded + 1;
        let rec walk prefix (s : Span.t) =
          let stack = prefix ^ ";" ^ sanitize s.Span.sname in
          touch stack
            ~incl_ns:(s.Span.dur_us *. 1000.0)
            ~self_ns:(Span.self_ms s *. 1e6);
          List.iter (walk stack) (Span.children s)
        in
        walk prefix0 root)

  (* The rows, sorted; with [reset] the table is cleared under the same
     acquisition, so no fold lands between the read and the clear. *)
  let take ~reset =
    Mutex.protect state.plock (fun () ->
        let rows =
          Hashtbl.fold
            (fun stack e acc ->
              { stack; count = e.p_count; incl_ns = e.p_incl_ns; self_ns = e.p_self_ns }
              :: acc)
            state.tbl []
        in
        if reset then begin
          Hashtbl.reset state.tbl;
          state.folded <- 0;
          state.dropped <- 0
        end;
        rows)
    |> List.sort (fun a b -> compare a.stack b.stack)

  let rows () = take ~reset:false

  (* Values are self-nanoseconds: summing a frame's own lines and its
     descendants' reconstructs inclusive time, which is exactly the
     contract flamegraph.pl and speedscope expect. *)
  let to_folded ?(reset = false) () =
    let b = Buffer.create 4096 in
    List.iter
      (fun r -> Buffer.add_string b (Printf.sprintf "%s %.0f\n" r.stack r.self_ns))
      (take ~reset);
    Buffer.contents b

  let to_json () =
    let stacks, folded, dropped =
      Mutex.protect state.plock (fun () ->
          (Hashtbl.length state.tbl, state.folded, state.dropped))
    in
    Json.Obj
      [
        ("stacks", Json.Int stacks);
        ("max_stacks", Json.Int max_stacks);
        ("folded", Json.Int folded);
        ("dropped", Json.Int dropped);
      ]
end

(* ------------------------------------------------------------------ *)
(* Structured performance reports                                       *)
(* ------------------------------------------------------------------ *)

module Report = struct
  let schema_version = 1

  type sample_stats = {
    samples : float list;
    median : float;
    iqr : float;
    q1 : float;
    q3 : float;
  }

  (* Quartiles by linear interpolation between order statistics; the
     median of an even sample count is the mean of the middle pair. *)
  let stats_of_samples samples =
    match List.sort compare samples with
    | [] -> { samples = []; median = nan; iqr = nan; q1 = nan; q3 = nan }
    | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let quantile p =
        let pos = p *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor pos) in
        let hi = int_of_float (Float.ceil pos) in
        let frac = pos -. Float.floor pos in
        (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)
      in
      let q1 = quantile 0.25 and q3 = quantile 0.75 in
      { samples; median = quantile 0.5; iqr = q3 -. q1; q1; q3 }

  type record = {
    id : string;
    experiment : string;
    units : string;
    params : (string * Json.t) list;
    stats : sample_stats;
  }

  type t = {
    tool : string;
    mode : string;
    created_unix : float;
    mutable rev_records : record list;
  }

  let create ?(tool = "expfinder-bench") ?(mode = "quick") () =
    { tool; mode; created_unix = Unix.time (); rev_records = [] }

  let experiment_of_id id =
    match String.index_opt id '.' with Some i -> String.sub id 0 i | None -> id

  let add t ~id ?experiment ?(units = "ms") ?(params = []) samples =
    let experiment =
      match experiment with Some e -> e | None -> experiment_of_id id
    in
    t.rev_records <-
      { id; experiment; units; params; stats = stats_of_samples samples } :: t.rev_records

  let records t = List.rev t.rev_records

  let record_json r =
    Json.Obj
      [
        ("id", Json.Str r.id);
        ("experiment", Json.Str r.experiment);
        ("unit", Json.Str r.units);
        ("params", Json.Obj r.params);
        ("samples", Json.Arr (List.map (fun s -> Json.Float s) r.stats.samples));
        ("median", Json.Float r.stats.median);
        ("iqr", Json.Float r.stats.iqr);
        ("q1", Json.Float r.stats.q1);
        ("q3", Json.Float r.stats.q3);
      ]

  let to_json t =
    Json.Obj
      [
        ("schema_version", Json.Int schema_version);
        ("tool", Json.Str t.tool);
        ("mode", Json.Str t.mode);
        ("created_unix", Json.Float t.created_unix);
        ("records", Json.Arr (List.map record_json (records t)));
      ]

  let write t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Json.to_string ~pretty:true (to_json t)))

  let field_str json key default =
    Option.value ~default (Option.bind (Json.member key json) Json.str_opt)

  let parse_record item =
    match
      ( Option.bind (Json.member "id" item) Json.str_opt,
        Option.bind (Json.member "samples" item) Json.list_opt )
    with
    | Some id, Some sample_values -> (
      match List.filter_map Json.float_opt sample_values with
      | [] -> Error (Printf.sprintf "record %S has no numeric samples" id)
      | samples ->
        Ok
          {
            id;
            experiment = field_str item "experiment" (experiment_of_id id);
            units = field_str item "unit" "ms";
            params = (match Json.member "params" item with Some (Json.Obj kv) -> kv | _ -> []);
            (* Recomputed from the raw samples, so a report survives a
               hand edit of the derived fields. *)
            stats = stats_of_samples samples;
          }
      )
    | _ -> Error "record lacks an \"id\" or a \"samples\" array"

  let load path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error e
    | text -> (
      match Json.of_string text with
      | Error e -> Error ("invalid JSON: " ^ e)
      | Ok json -> (
        match Json.member "schema_version" json with
        | None -> Error "not a bench report (no schema_version)"
        | Some v when v <> Json.Int schema_version ->
          Error
            (Printf.sprintf "unsupported schema_version (this build reads version %d)"
               schema_version)
        | Some _ -> (
          match Option.bind (Json.member "records" json) Json.list_opt with
          | None -> Error "report has no records array"
          | Some items ->
            let rec build acc = function
              | [] ->
                Ok
                  {
                    tool = field_str json "tool" "?";
                    mode = field_str json "mode" "?";
                    created_unix =
                      Option.value ~default:0.0
                        (Option.bind (Json.member "created_unix" json) Json.float_opt);
                    rev_records = acc;
                  }
              | item :: rest -> (
                match parse_record item with
                | Ok r -> build (r :: acc) rest
                | Error e -> Error e)
            in
            build [] items)))

  type verdict = Regression | Improvement | Unchanged | Added | Removed

  type comparison = {
    cid : string;
    verdict : verdict;
    old_median : float;
    new_median : float;
    ratio : float;
  }

  let diff ?(threshold = 0.5) ?(min_ms = 0.05) ~baseline ~candidate () =
    let base_by_id = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace base_by_id r.id r) (records baseline);
    let compared =
      List.map
        (fun nr ->
          match Hashtbl.find_opt base_by_id nr.id with
          | None ->
            { cid = nr.id; verdict = Added; old_median = nan; new_median = nr.stats.median; ratio = nan }
          | Some br ->
            Hashtbl.remove base_by_id nr.id;
            let om = br.stats.median and nm = nr.stats.median in
            let ratio = nm /. Float.max om 1e-9 in
            (* Noise rule: a shift only counts when the Tukey intervals
               [q1 - 1.5*iqr, q3 + 1.5*iqr] of the two runs do not
               overlap.  The raw [q1, q3] box is too narrow at the
               quick-mode sample counts (3 reps): two runs of the same
               binary routinely land disjoint under load jitter. *)
            let lo s = s.q1 -. (1.5 *. s.iqr) and hi s = s.q3 +. (1.5 *. s.iqr) in
            let overlap =
              lo br.stats <= hi nr.stats && lo nr.stats <= hi br.stats
            in
            let verdict =
              if om < min_ms && nm < min_ms then Unchanged
              else if ratio > 1.0 +. threshold && not overlap then Regression
              else if ratio < 1.0 /. (1.0 +. threshold) && not overlap then Improvement
              else Unchanged
            in
            { cid = nr.id; verdict; old_median = om; new_median = nm; ratio })
        (records candidate)
    in
    let removed =
      records baseline
      |> List.filter (fun r -> Hashtbl.mem base_by_id r.id)
      |> List.map (fun r ->
             { cid = r.id; verdict = Removed; old_median = r.stats.median; new_median = nan; ratio = nan })
    in
    compared @ removed

  let has_regression = List.exists (fun c -> c.verdict = Regression)

  let pp_diff ppf comps =
    let count v = List.length (List.filter (fun c -> c.verdict = v) comps) in
    List.iter
      (fun c ->
        match c.verdict with
        | Regression ->
          Format.fprintf ppf "  REGRESSION  %-42s %10.3f -> %10.3f ms  (%.2fx)@." c.cid
            c.old_median c.new_median c.ratio
        | Improvement ->
          Format.fprintf ppf "  improved    %-42s %10.3f -> %10.3f ms  (%.2fx)@." c.cid
            c.old_median c.new_median c.ratio
        | Added -> Format.fprintf ppf "  added       %-42s %10s -> %10.3f ms@." c.cid "-" c.new_median
        | Removed -> Format.fprintf ppf "  removed     %-42s %10.3f -> %10s ms@." c.cid c.old_median "-"
        | Unchanged -> ())
      comps;
    Format.fprintf ppf
      "bench-diff: %d record(s): %d regression(s), %d improvement(s), %d unchanged, %d added, \
       %d removed@."
      (List.length comps) (count Regression) (count Improvement) (count Unchanged) (count Added)
      (count Removed)
end

(* ------------------------------------------------------------------ *)
(* GC pause observation                                                 *)
(* ------------------------------------------------------------------ *)

module Gcpause = struct
  (* Self-monitoring through [Runtime_events]: the OCaml runtime
     publishes begin/end pairs for GC phases into a per-process ring
     buffer which the sampler polls.  Everything is best-effort — if the
     ring cannot be created the module stays inert and the pause gauges
     read zero, because observability must never take the service down
     with it. *)
  type session = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
  }

  let session : session option ref = ref None

  (* One set of books: the runtime's begin/end pairs carry the ring
     index (= domain slot), and each slot's pauses land in its registry
     histogram [gc.domain<i>.pause_us], which the exporters,
     /domains.json and every total below read.  The table is written
     only from the poll callbacks (under [poll_lock]); readers snapshot
     it under the same lock.  The domain lifecycle counters ride
     along. *)
  type totals = {
    spawns : int Atomic.t;
    stops : int Atomic.t;
    per_domain : (int, Histogram.t) Hashtbl.t;
  }

  let stats = { spawns = Atomic.make 0; stops = Atomic.make 0; per_domain = Hashtbl.create 8 }

  (* Open begin-events keyed by (domain, phase): minor and major slices
     can interleave across domains, so each pair is matched separately.
     Touched only from the poll callbacks, which run under [poll_lock]. *)
  let opens : (int * Runtime_events.runtime_phase, int64) Hashtbl.t = Hashtbl.create 8

  (* Draining the cursor is single-consumer by construction (each event
     must be matched to its begin exactly once), so polling is mutually
     exclusive.  Contenders skip rather than wait: the loser's events
     are simply picked up by the next tick, and a sampler beat must not
     block a request handler. *)
  let poll_lock = Mutex.create ()

  let interesting (phase : Runtime_events.runtime_phase) =
    match phase with Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR -> true | _ -> false

  let on_begin domain ts phase =
    if interesting phase then
      Hashtbl.replace opens (domain, phase) (Runtime_events.Timestamp.to_int64 ts)

  (* Runs under [poll_lock] (poll callbacks only), so lookup-or-create
     never races itself; the registry call takes only registry_mutex,
     which never waits on poll_lock. *)
  let histogram_for domain =
    match Hashtbl.find_opt stats.per_domain domain with
    | Some h -> h
    | None ->
      let h = Metrics.histogram (Printf.sprintf "gc.domain%d.pause_us" domain) in
      Hashtbl.replace stats.per_domain domain h;
      h

  let on_end domain ts phase =
    if interesting phase then
      match Hashtbl.find_opt opens (domain, phase) with
      | None -> ()
      | Some t0 ->
        Hashtbl.remove opens (domain, phase);
        let dur = Int64.to_int (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0) in
        if dur > 0 then Histogram.observe (histogram_for domain) (float_of_int dur /. 1000.0)

  let on_lifecycle _ring _ts (ev : Runtime_events.lifecycle) _arg =
    match ev with
    | Runtime_events.EV_DOMAIN_SPAWN -> Atomic.incr stats.spawns
    | Runtime_events.EV_DOMAIN_TERMINATE -> Atomic.incr stats.stops
    | _ -> ()

  let start () =
    Mutex.protect poll_lock (fun () ->
        match !session with
        | Some _ -> true
        | None -> (
          try
            Runtime_events.start ();
            let cursor = Runtime_events.create_cursor None in
            let callbacks =
              Runtime_events.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end
                ~lifecycle:on_lifecycle ()
            in
            session := Some { cursor; callbacks };
            true
          with _ -> false))

  let poll () =
    if Mutex.try_lock poll_lock then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock poll_lock)
        (fun () ->
          match !session with
          | None -> ()
          | Some s -> (
            try ignore (Runtime_events.read_poll s.cursor s.callbacks None : int) with _ -> ()))

  let domain_spawns () = Atomic.get stats.spawns

  let domain_stops () = Atomic.get stats.stops

  type domain_totals = {
    domain : int;
    pause_us_total : int;
    pause_us_max : int;
    slices : int;
  }

  (* A histogram emptied by [Metrics.reset_all] reads nan for its max. *)
  let whole_us v = if Float.is_nan v then 0 else int_of_float v

  (* Snapshot the table under [poll_lock] so a concurrent poll never
     resizes it mid-fold; each histogram read takes that histogram's
     own lock. *)
  let by_domain () =
    Mutex.protect poll_lock (fun () ->
        Hashtbl.fold (fun domain h acc -> (domain, h) :: acc) stats.per_domain [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (domain, h) ->
           {
             domain;
             pause_us_total = whole_us (Histogram.sum h);
             pause_us_max = whole_us (Histogram.max_value h);
             slices = Histogram.count h;
           })

  let pause_us_total () = List.fold_left (fun acc d -> acc + d.pause_us_total) 0 (by_domain ())

  let pause_us_max () =
    List.fold_left (fun acc d -> Stdlib.max acc d.pause_us_max) 0 (by_domain ())
end

(* ------------------------------------------------------------------ *)
(* Process gauges                                                       *)
(* ------------------------------------------------------------------ *)

(* Linux reports the resident set in /proc/self/status as [VmRSS], in
   kB whatever the page size; elsewhere (or in a locked-down container)
   the read fails and rss is reported as 0 rather than an error —
   observability must not crash the service. *)
let rss_bytes () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> 0
          | Some line -> (
            try Scanf.sscanf line "VmRSS: %d kB" (fun kb -> kb * 1024)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
        in
        scan ())
  with Sys_error _ -> 0

let process_stats () =
  Gcpause.poll ();
  let gc = Gc.quick_stat () in
  let stats =
    [
      ("process.rss_bytes", rss_bytes ());
      ("process.heap_words", gc.Gc.heap_words);
      ("process.minor_words", int_of_float gc.Gc.minor_words);
      ("process.major_words", int_of_float gc.Gc.major_words);
      ("process.gc_minor_collections", gc.Gc.minor_collections);
      ("process.gc_major_collections", gc.Gc.major_collections);
      ("process.gc_pause_us_total", Gcpause.pause_us_total ());
      ("process.gc_pause_us_max", Gcpause.pause_us_max ());
      ("process.start_time_unix", int_of_float start_unix);
      ("uptime.seconds", int_of_float (Float.max 0.0 (Unix.gettimeofday () -. start_unix)));
    ]
  in
  List.iter (fun (name, v) -> Gauge.set (Metrics.gauge name) v) stats;
  stats

(* ------------------------------------------------------------------ *)
(* Time-bucket store                                                    *)
(* ------------------------------------------------------------------ *)

(* The store itself; [Timeseries] below is the store plus its sampler,
   which reads {!Window}. *)
module Store = struct
  let schema_version = 1

  (* Rate series hold per-tick deltas of a cumulative source (GC
     collections, registry counters); Level series hold instantaneous
     readings (qps, latency quantiles, rss).  The distinction matters on
     downsampling: a coarse slot's [sum] is the honest aggregate of a
     rate, while its [last]/[vmin]/[vmax] describe a level. *)
  type kind = Rate | Level

  let kind_name = function Rate -> "rate" | Level -> "level"

  (* A second's latency counts over the {!Histogram} layout, kept only
     for the run of bucket indices the second has seen: [counts.(i - lo)]
     is bucket [i].  A second's latencies span a few dozen of the 560
     buckets, so a full row per second would be mostly zeros.  Grown by
     swapping the record whole, so a lock-free reader that loads it once
     sees an offset that fits its array. *)
  type bins = { lo : int; counts : int array }

  let no_bins = { lo = 0; counts = [||] }

  (* Apart from the slot's ints, so the floats are stored unboxed and a
     write never allocates. *)
  type values = {
    mutable sum : float;
    mutable vmin : float;
    mutable vmax : float;
    mutable last : float;
  }

  (* Everything recorded in one [res_s]-second interval of one series.
     [id], the interval's [sec / res_s], is the slot's stamp and never
     changes: a write that lands in a later interval publishes a fresh
     slot at the index instead of zeroing this one in place.  So a
     reader that loads a slot once and finds the id it wants never
     merges a half-reset slot, and needs no lock.  A read that overlaps
     a write into the same slot can miss that one observation, which
     the scrape path tolerates. *)
  type slot = {
    id : int;
    mutable count : int;
    mutable errors : int;
    v : values;
    mutable bins : bins;  (* a request series' 1 s tier only *)
  }

  let fresh_slot id =
    {
      id;
      count = 0;
      errors = 0;
      v = { sum = 0.0; vmin = 0.0; vmax = 0.0; last = 0.0 };
      bins = no_bins;
    }

  (* [ring.(id mod slots)] holds interval [id], or an older one that
     readers skip. *)
  type tier = { res_s : int; ring : slot array }

  (* About 2 minutes, 1 hour and 12 hours of retention. *)
  let resolutions = [ (1, 120); (10, 360); (60, 720) ]

  (* One tier per resolution, finest first.  Every write feeds all of
     them, so the coarse tiers are exact downsamples of the fine one. *)
  type series = tier array

  let make_series () =
    (* A placeholder no write touches: its id matches no interval. *)
    let empty = fresh_slot (-1) in
    Array.of_list
      (List.map (fun (res_s, slots) -> { res_s; ring = Array.make slots empty }) resolutions)

  (* The one slot reclaim: the slot of [sec] in [tier], published fresh
     when its index still holds another interval.  The caller
     serializes the writers of the series. *)
  let slot_at tier sec =
    let id = sec / tier.res_s in
    let i = id mod Array.length tier.ring in
    let s = tier.ring.(i) in
    if s.id = id then s
    else begin
      let s = fresh_slot id in
      tier.ring.(i) <- s;
      s
    end

  let add s x =
    let v = s.v in
    if s.count = 0 || x < v.vmin then v.vmin <- x;
    if s.count = 0 || x > v.vmax then v.vmax <- x;
    v.sum <- v.sum +. x;
    v.last <- x;
    s.count <- s.count + 1

  let bin s i =
    let h = s.bins in
    let len = Array.length h.counts in
    let h =
      if i >= h.lo && i < h.lo + len then h
      else begin
        let lo = if len = 0 then i else Stdlib.min i h.lo in
        let hi = if len = 0 then i + 1 else Stdlib.max (i + 1) (h.lo + len) in
        let counts = Array.make (hi - lo) 0 in
        if len > 0 then Array.blit h.counts 0 counts (h.lo - lo) len;
        let h = { lo; counts } in
        s.bins <- h;
        h
      end
    in
    h.counts.(i - h.lo) <- h.counts.(i - h.lo) + 1

  (* The last [ceil (seconds / res_s)] slots of [tier] up to [now], the
     current one included, that hold data, newest first.  Every reader
     selects its window this way, so a 60 s summary and the 60 s of
     points agree slot for slot. *)
  let window_slots tier ~now ~seconds =
    let cur = int_of_float now / tier.res_s in
    let n = Stdlib.min (Array.length tier.ring) ((seconds + tier.res_s - 1) / tier.res_s) in
    let acc = ref [] in
    for k = n - 1 downto 0 do
      let id = cur - k in
      if id >= 0 then begin
        let s = tier.ring.(id mod Array.length tier.ring) in
        if s.id = id && s.count > 0 then acc := s :: !acc
      end
    done;
    !acc

  (* The window's in-window count and p99 as of [at_sec], taken when the
     lifetime count was [at_total]: what {!Window.slow} compares a
     finished request against. *)
  type memo = { at_sec : int; at_total : int; m_count : int; m_p99 : float }

  let no_memo = { at_sec = min_int; at_total = 0; m_count = 0; m_p99 = nan }

  (* One op class's request series: each slot counts the requests and
     errors of its interval and keeps their latencies.  Writers are
     serialized by [wm], so any worker domain may finish a request of
     any op class; readers never take it. *)
  type requests = {
    op : string;
    rseries : series;
    (* Lifetime totals, which outlive the tiers. *)
    total_count : int Atomic.t;
    total_errors : int Atomic.t;
    (* OpenMetrics-style exemplars: one recent trace id per latency
       bucket (the {!Histogram} layout), so a scraped percentile can be
       chased down to a concrete stored trace.  Written under [wm]; a
       torn read pairs a trace id with a neighbouring observation's
       value, which is harmless for a drill-down hint. *)
    ex_trace : string array;
    ex_ms : float array;
    ex_unix : float array;
    (* An immutable record swapped whole, so readers never see a count
       from one refresh paired with another's p99. *)
    memo : memo Atomic.t;
    wm : Mutex.t;
  }

  type entry = Sampled of kind * series | Requests of requests

  module Names = Map.Make (String)

  type t = {
    (* Every series by name, with its registration rank.  An immutable
       map swapped whole on registration: readers take one
       [Atomic.get], and a registration that loses a race retries on the
       winner's map.  A request series is filed as [req.<op>]. *)
    registry : (int * entry) Names.t Atomic.t;
    (* Sampler state: last value of each cumulative source, for rates. *)
    prev : (string, float) Hashtbl.t;
  }

  let create () = { registry = Atomic.make Names.empty; prev = Hashtbl.create 32 }

  let rec register t name make =
    let m = Atomic.get t.registry in
    match Names.find_opt name m with
    | Some (_, e) -> e
    | None ->
      let e = make () in
      if Atomic.compare_and_set t.registry m (Names.add name (Names.cardinal m, e) m) then e
      else register t name make

  let requests t op =
    match
      register t ("req." ^ op) (fun () ->
          Requests
            {
              op;
              rseries = make_series ();
              total_count = Atomic.make 0;
              total_errors = Atomic.make 0;
              ex_trace = Array.make Histogram.nbuckets "";
              ex_ms = Array.make Histogram.nbuckets 0.0;
              ex_unix = Array.make Histogram.nbuckets 0.0;
              memo = Atomic.make no_memo;
              wm = Mutex.create ();
            })
    with
    | Requests r -> r
    | Sampled _ -> invalid_arg ("Telemetry.Timeseries.requests: req." ^ op ^ " is sampled")

  (* The request series, sorted by op. *)
  let all_requests t =
    Names.fold
      (fun _ (_, e) acc -> match e with Requests r -> (r.op, r) :: acc | Sampled _ -> acc)
      (Atomic.get t.registry) []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let now_or now = match now with Some n -> n | None -> now_us () /. 1e6

  (* The sampler's write.  One thread samples a store, so the writes of
     a sampled series need no lock. *)
  let record ?now t kind name x =
    if Float.is_finite x then begin
      let sec = int_of_float (now_or now) in
      match register t name (fun () -> Sampled (kind, make_series ())) with
      | Sampled (_, series) -> Array.iter (fun tier -> add (slot_at tier sec) x) series
      | Requests _ -> invalid_arg ("Telemetry.Timeseries.record: " ^ name ^ " is a request series")
    end

  (* The request path's write: one finished request of [ms]
     milliseconds. *)
  let observe r ?(error = false) ?now ?trace ms =
    let now = now_or now in
    let sec = int_of_float now in
    let i = Histogram.bucket_of ms in
    Mutex.lock r.wm;
    for k = 0 to Array.length r.rseries - 1 do
      let s = slot_at r.rseries.(k) sec in
      add s ms;
      if error then s.errors <- s.errors + 1;
      if k = 0 then bin s i
    done;
    Atomic.incr r.total_count;
    if error then Atomic.incr r.total_errors;
    (match trace with
    | Some tid when tid <> "" ->
      r.ex_trace.(i) <- tid;
      r.ex_ms.(i) <- ms;
      r.ex_unix.(i) <- now
    | Some _ | None -> ());
    Mutex.unlock r.wm

  let reset r =
    Mutex.lock r.wm;
    let empty = fresh_slot (-1) in
    Array.iter (fun tier -> Array.fill tier.ring 0 (Array.length tier.ring) empty) r.rseries;
    Atomic.set r.total_count 0;
    Atomic.set r.total_errors 0;
    Array.fill r.ex_trace 0 Histogram.nbuckets "";
    Array.fill r.ex_ms 0 Histogram.nbuckets 0.0;
    Array.fill r.ex_unix 0 Histogram.nbuckets 0.0;
    Atomic.set r.memo no_memo;
    Mutex.unlock r.wm

  type point = {
    t_unix : int; (* slot start, unix seconds *)
    res_s : int;
    n : int; (* samples merged into the slot *)
    sum : float;
    vmin : float;
    vmax : float;
    last : float;
  }

  (* A sampled slot reads as itself; a request series reads as two rate
     series, [req.<op>] and [err.<op>], each slot one exact count. *)
  let sampled_point (tier : tier) s =
    let v = s.v in
    {
      t_unix = s.id * tier.res_s;
      res_s = tier.res_s;
      n = s.count;
      sum = v.sum;
      vmin = v.vmin;
      vmax = v.vmax;
      last = v.last;
    }

  let count_point count (tier : tier) s =
    let x = float_of_int (count s) in
    { t_unix = s.id * tier.res_s; res_s = tier.res_s; n = 1; sum = x; vmin = x; vmax = x; last = x }

  (* Every series as readers see it, in registration order: name, kind,
     tiers and how one slot reads. *)
  let views t =
    Names.fold (fun name (rank, e) acc -> (rank, name, e) :: acc) (Atomic.get t.registry) []
    |> List.sort compare
    |> List.concat_map (fun (_, name, e) ->
           match e with
           | Sampled (kind, series) -> [ (name, kind, series, sampled_point) ]
           | Requests r ->
             [
               (name, Rate, r.rseries, count_point (fun s -> s.count));
               ("err." ^ r.op, Rate, r.rseries, count_point (fun s -> s.errors));
             ])

  (* Finest tier whose span covers [seconds]; the coarsest one when none
     does. *)
  let tier_for (series : series) ~seconds =
    let last = Array.length series - 1 in
    let rec pick i =
      if i >= last then series.(last)
      else if series.(i).res_s * Array.length series.(i).ring >= seconds then series.(i)
      else pick (i + 1)
    in
    pick 0

  let points ?now t ~seconds name =
    match List.find_opt (fun (n, _, _, _) -> n = name) (views t) with
    | None -> []
    | Some (_, _, series, point) ->
      let tier = tier_for series ~seconds in
      List.rev_map (point tier) (window_slots tier ~now:(now_or now) ~seconds)

  let window_sum ?now t ~seconds name =
    List.fold_left (fun acc p -> acc +. p.sum) 0.0 (points ?now t ~seconds name)

  let point_json p =
    Json.Arr
      [
        Json.Int p.t_unix;
        Json.Float p.last;
        Json.Float p.sum;
        Json.Float p.vmin;
        Json.Float p.vmax;
        Json.Int p.n;
      ]

  let to_json ?now ?(max_points = max_int) t =
    let nowf = now_or now in
    let views = views t in
    let tier_json i (res_s, slots) =
      Json.Obj
        [
          ("res_s", Json.Int res_s);
          ("slots", Json.Int slots);
          ("span_s", Json.Int (res_s * slots));
          ( "series",
            Json.Obj
              (List.filter_map
                 (fun (name, _, (series : series), point) ->
                   let tier = series.(i) in
                   match window_slots tier ~now:nowf ~seconds:(res_s * slots) with
                   | [] -> None
                   | newest_first ->
                     Some
                       ( name,
                         Json.Arr
                           (List.filteri (fun k _ -> k < max_points) newest_first
                           |> List.rev_map (fun s -> point_json (point tier s))) ))
                 views) );
        ]
    in
    Json.Obj
      [
        ("v", Json.Int schema_version);
        ("now_unix", Json.Float nowf);
        ( "series_kinds",
          Json.Obj (List.map (fun (name, kind, _, _) -> (name, Json.Str (kind_name kind))) views) );
        ("point", Json.Str "[t_unix,last,sum,min,max,count]");
        ("resolutions", Json.Arr (List.mapi tier_json resolutions));
      ]

  (* The process-wide store behind /timeseries.json, the sampler, the
     SLO evaluator and the op-class windows. *)
  let shared = create ()
end

(* ------------------------------------------------------------------ *)
(* Sliding windows                                                      *)
(* ------------------------------------------------------------------ *)

module Window = struct
  (* A window is an op class's request series in {!Store.shared},
     read over its last 60 one-second slots. *)
  type t = Store.requests

  let seconds = 60

  let get name = Store.requests Store.shared name

  let all () = Store.all_requests Store.shared

  let reset = Store.reset

  let totals (w : t) = (Atomic.get w.total_count, Atomic.get w.total_errors)

  type exemplar = {
    ex_le : float;  (** upper bound of the latency bucket, in ms *)
    ex_trace_id : string;
    ex_value_ms : float;
    ex_ts_unix : float;
  }

  let exemplars (w : t) =
    let acc = ref [] in
    for i = Histogram.nbuckets - 1 downto 0 do
      if w.ex_trace.(i) <> "" then
        acc :=
          {
            ex_le = Histogram.upper_bound i;
            ex_trace_id = w.ex_trace.(i);
            ex_value_ms = w.ex_ms.(i);
            ex_ts_unix = w.ex_unix.(i);
          }
          :: !acc
    done;
    !acc

  let exemplar_json e =
    Json.Obj
      [
        ("le", Json.Float e.ex_le);
        ("trace_id", Json.Str e.ex_trace_id);
        ("value_ms", Json.Float e.ex_value_ms);
        ("ts_unix", Json.Float e.ex_ts_unix);
      ]

  type summary = {
    window_s : int;
    count : int;
    errors : int;
    qps : float;
    error_rate : float;  (** 0 when the window is empty *)
    p50 : float;
    p95 : float;
    p99 : float;
    mean_ms : float;
    max_ms : float;
  }

  (* Merges the 1 s tier's slots of the window; latencies share the
     {!Histogram} layout, so merged percentiles keep its resolution
     (~9% relative error) and its exact-min/max clamping. *)
  let summary ?now (w : t) =
    let now = Store.now_or now in
    let merged = Array.make Histogram.nbuckets 0 in
    let count = ref 0 and errors = ref 0 and sum = ref 0.0 in
    let mn = ref 0.0 and mx = ref 0.0 in
    List.iter
      (fun (s : Store.slot) ->
        let v = s.v in
        if !count = 0 || v.vmin < !mn then mn := v.vmin;
        if !count = 0 || v.vmax > !mx then mx := v.vmax;
        count := !count + s.count;
        errors := !errors + s.errors;
        sum := !sum +. v.sum;
        let h = s.bins in
        Array.iteri (fun j c -> merged.(h.lo + j) <- merged.(h.lo + j) + c) h.counts)
      (Store.window_slots w.rseries.(0) ~now ~seconds);
    let n = !count in
    let pct p =
      if n = 0 then nan
      else if p <= 0.0 then !mn
      else if p >= 1.0 then !mx
      else
        let rank = Stdlib.max 1 (int_of_float (ceil (p *. float_of_int n))) in
        Histogram.rank_in_buckets merged ~rank ~mn:!mn ~mx:!mx
    in
    {
      window_s = seconds;
      count = n;
      errors = !errors;
      qps = float_of_int n /. float_of_int seconds;
      error_rate = (if n = 0 then 0.0 else float_of_int !errors /. float_of_int n);
      p50 = pct 0.5;
      p95 = pct 0.95;
      p99 = pct 0.99;
      mean_ms = (if n = 0 then nan else !sum /. float_of_int n);
      max_ms = (if n = 0 then nan else !mx);
    }

  (* Refreshed once per wall-clock second, or sooner once the lifetime
     count has at least doubled since the memo was taken, so a window
     that fills up within one second does not keep its empty verdict.
     Concurrent refreshes race harmlessly: each stores a whole memo. *)
  let memo ?now (w : t) =
    let now = Store.now_or now in
    let sec = int_of_float now in
    let m = Atomic.get w.memo in
    let total = Atomic.get w.total_count in
    if m.at_sec = sec && (total <= m.at_total || total < 2 * m.at_total) then m
    else begin
      let s = summary ~now w in
      let m = { Store.at_sec = sec; at_total = total; m_count = s.count; m_p99 = s.p99 } in
      Atomic.set w.memo m;
      m
    end

  let recent_p99 ?now w =
    let m = memo ?now w in
    (m.m_count, m.m_p99)

  (* The p99 means something only once the window has seen this many
     requests. *)
  let min_count_for_p99 = 20

  (* The one rule for a slow request: it reached the p99 of a window
     that already holds [min_count_for_p99] requests. *)
  let slow w ms =
    let m = memo w in
    m.m_count >= min_count_for_p99 && ms >= m.m_p99

  let summary_json s =
    Json.Obj
      [
        ("window_s", Json.Int s.window_s);
        ("count", Json.Int s.count);
        ("errors", Json.Int s.errors);
        ("qps", Json.Float s.qps);
        ("error_rate", Json.Float s.error_rate);
        ("p50_ms", Json.Float s.p50);
        ("p95_ms", Json.Float s.p95);
        ("p99_ms", Json.Float s.p99);
        ("mean_ms", Json.Float s.mean_ms);
        ("max_ms", Json.Float s.max_ms);
      ]

  (* Full window document for /stats.json: the summary fields plus the
     window's current exemplars.  [summary_of_json] below ignores the
     extra member, so older clients keep parsing it. *)
  let to_json ?now w =
    match summary_json (summary ?now w) with
    | Json.Obj fields ->
      Json.Obj (fields @ [ ("exemplars", Json.Arr (List.map exemplar_json (exemplars w))) ])
    | j -> j

  (* Read the numbers back out of a summary dump (a postmortem's window
     summaries).  Missing latency fields (serialized [null] for an
     empty window) come back as nan. *)
  let summary_of_json json =
    let int_field k = Option.bind (Json.member k json) Json.int_opt in
    let float_field k =
      match Option.bind (Json.member k json) Json.float_opt with Some f -> f | None -> nan
    in
    match (int_field "window_s", int_field "count") with
    | Some window_s, Some count ->
      Some
        {
          window_s;
          count;
          errors = Option.value ~default:0 (int_field "errors");
          qps = float_field "qps";
          error_rate = float_field "error_rate";
          p50 = float_field "p50_ms";
          p95 = float_field "p95_ms";
          p99 = float_field "p99_ms";
          mean_ms = float_field "mean_ms";
          max_ms = float_field "max_ms";
        }
    | _ -> None

  let pp_summary ppf s =
    if s.count = 0 then Format.fprintf ppf "no requests in the last %ds" s.window_s
    else
      Format.fprintf ppf
        "%d request(s) in %ds: %.2f qps, errors %d (%.1f%%), p50 %.3f ms, p95 %.3f ms, p99 \
         %.3f ms, max %.3f ms"
        s.count s.window_s s.qps s.errors (100.0 *. s.error_rate) s.p50 s.p95 s.p99 s.max_ms
end

(* ------------------------------------------------------------------ *)
(* In-process trace store                                               *)
(* ------------------------------------------------------------------ *)

module Tracestore = struct
  (* A bounded ring of recently finished request traces, the backing
     store for GET /traces.json and the [expfinder trace] explorer.
     Admission is head + tail sampling: errored requests and slow ones
     ({!Window.slow}, decided by the caller) are always kept (tail —
     decided from the outcome), and of the unremarkable rest one in
     [head_rate] is kept (head — decided by arrival count), so the
     store holds the interesting traces plus a thin representative
     sample without growing with traffic. *)
  type stored = {
    strace_id : string;
    sspan_id : string;
    sop : string;  (* window/op class: "query", "batch", "update" *)
    squery : string;
    sduration_ms : float;
    serror : bool;
    skept : string;  (* admission reason: "error" | "slow" | "sampled" *)
    sts_unix : float;
    sroot : Span.t option;  (* span tree, when one was recorded *)
  }

  let capacity = 128

  (* Of unremarkable traces, keep one in this many. *)
  let head_rate = 10

  (* Unlike a request series (one writer mutex per op class) the store
     is written by every op class and read by the HTTP handler, so the
     whole state — ring, cursor, arrival counter — sits behind one
     mutex.  Store operations are rare (sampled admissions) and tiny
     (a record write), so contention is immaterial. *)
  let lock = Mutex.create ()

  type state = {
    ring : stored option array;
    mutable next : int;
    mutable seen : int;
  }

  let state = { ring = Array.make capacity None; next = 0; seen = 0 }

  let clear () =
    Mutex.protect lock (fun () ->
        Array.fill state.ring 0 capacity None;
        state.next <- 0;
        state.seen <- 0)

  let seen () = Mutex.protect lock (fun () -> state.seen)

  (* Offer a finished request to the store; returns [true] iff it was
     admitted (the caller uses this to decide whether the trace id is
     worth advertising as a histogram exemplar — an exemplar must
     resolve to a stored trace).  Identity-free requests are never
     stored: there is nothing to look them up by. *)
  let record ~trace_id ~span_id ~op ~query ~duration_ms ~error ~slow ?root () =
    if trace_id = "" then false
    else
      Mutex.protect lock (fun () ->
          state.seen <- state.seen + 1;
          let kept =
            if error then Some "error"
            else if slow then Some "slow"
            else if state.seen mod head_rate = 1 then Some "sampled"
            else None
          in
          match kept with
          | None -> false
          | Some skept ->
            state.ring.(state.next mod capacity) <-
              Some
                {
                  strace_id = trace_id;
                  sspan_id = span_id;
                  sop = op;
                  squery = query;
                  sduration_ms = duration_ms;
                  serror = error;
                  skept;
                  sts_unix = Unix.gettimeofday ();
                  sroot = root;
                };
            state.next <- state.next + 1;
            true)

  (* Newest first. *)
  let recent () =
    Mutex.protect lock (fun () ->
        Array.to_list state.ring |> List.filter_map Fun.id)
    |> List.sort (fun a b -> compare b.sts_unix a.sts_unix)

  let stored_json s =
    Json.Obj
      [
        ("trace_id", Json.Str s.strace_id);
        ("span_id", Json.Str s.sspan_id);
        ("op", Json.Str s.sop);
        ("query", Json.Str s.squery);
        ("duration_ms", Json.Float s.sduration_ms);
        ("error", Json.Bool s.serror);
        ("kept", Json.Str s.skept);
        ("ts_unix", Json.Float s.sts_unix);
        ("root", match s.sroot with Some sp -> Span.to_json sp | None -> Json.Null);
      ]

  let stored_of_json json =
    let str k = Option.bind (Json.member k json) Json.str_opt in
    let float k = Option.bind (Json.member k json) Json.float_opt in
    match str "trace_id" with
    | None -> None
    | Some strace_id ->
      Some
        {
          strace_id;
          sspan_id = Option.value ~default:"" (str "span_id");
          sop = Option.value ~default:"" (str "op");
          squery = Option.value ~default:"" (str "query");
          sduration_ms = Option.value ~default:0.0 (float "duration_ms");
          serror =
            (match Json.member "error" json with Some (Json.Bool b) -> b | _ -> false);
          skept = Option.value ~default:"" (str "kept");
          sts_unix = Option.value ~default:0.0 (float "ts_unix");
          sroot = Option.bind (Json.member "root" json) Span.of_json;
        }

  let to_json () =
    Json.Obj
      [
        ("capacity", Json.Int capacity);
        ("seen", Json.Int (seen ()));
        ("traces", Json.Arr (List.map stored_json (recent ())));
      ]

  let pp_stored ppf s =
    Format.fprintf ppf "trace %s  %s %s  %.3f ms  kept=%s%s@." s.strace_id s.sop s.squery
      s.sduration_ms s.skept
      (if s.serror then "  ERROR" else "");
    match s.sroot with
    | None -> Format.fprintf ppf "  (no span tree recorded)@."
    | Some root -> Span.pp_annotated ppf root
end

(* ------------------------------------------------------------------ *)
(* Shared JSONL sink                                                    *)
(* ------------------------------------------------------------------ *)

(* Appending, size-capped JSONL writer shared by the query log and the
   timeseries log.  The channel opens lazily on the first emit so merely
   importing the library never touches the filesystem; crossing the size
   ceiling rotates the live file to "<path>.1" (one archived
   generation); I/O failures (unwritable path, full disk) disable the
   sink with one stderr warning instead of raising into the serving
   path.  Pointing at a new path re-arms the warning. *)
module Jsonl_sink = struct
  (* One mutex per sink: the SLO evaluator emits alert events from the
     sampler thread into the same query-log sink the handler writes, so
     open/rotate/write/disable must be a critical section or two writers
     can interleave half-lines into the log.  All mutation happens with
     [lock] held; the [_unlocked] helpers exist because disable-on-error
     fires from inside [emit], which already holds it. *)
  type t = {
    label : string;
    lock : Mutex.t;
    mutable path : string option;
    mutable chan : out_channel option;
    mutable written : int;
    mutable max_bytes : int;
    mutable warned : bool;
  }

  (* An empty path means "no sink": ENV= must behave like an unset
     variable, not like a log named "". *)
  let normalize = function Some "" -> None | other -> other

  let default_max_bytes = 64 * 1024 * 1024

  let create ~label path =
    {
      label;
      lock = Mutex.create ();
      path = normalize path;
      chan = None;
      written = 0;
      max_bytes = default_max_bytes;
      warned = false;
    }

  let close_unlocked t =
    Option.iter close_out_noerr t.chan;
    t.chan <- None;
    t.written <- 0

  let close t = Mutex.protect t.lock (fun () -> close_unlocked t)

  let set_path t path =
    Mutex.protect t.lock (fun () ->
        close_unlocked t;
        t.warned <- false;
        t.path <- normalize path)

  let enabled t = t.path <> None

  let set_max_bytes t n = Mutex.protect t.lock (fun () -> t.max_bytes <- Stdlib.max 4096 n)

  let rotated_path p = p ^ ".1"

  let disable_unlocked t exn =
    if not t.warned then begin
      t.warned <- true;
      Printf.eprintf "expfinder: %s disabled: %s\n%!" t.label (Printexc.to_string exn)
    end;
    close_unlocked t;
    t.path <- None

  let open_chan t p =
    let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 p in
    t.chan <- Some oc;
    t.written <- out_channel_length oc

  let rotate t p =
    close_unlocked t;
    (try Sys.remove (rotated_path p) with Sys_error _ -> ());
    (try Sys.rename p (rotated_path p) with Sys_error _ -> ());
    open_chan t p

  (* [line] is one JSON document without the trailing newline. *)
  let emit t line =
    Mutex.protect t.lock (fun () ->
        match t.path with
        | None -> ()
        | Some p -> (
          try
            if t.chan = None then open_chan t p;
            if t.written > 0 && t.written + String.length line + 1 > t.max_bytes then
              rotate t p;
            match t.chan with
            | Some oc ->
              output_string oc line;
              output_char oc '\n';
              flush oc;
              t.written <- t.written + String.length line + 1
            | None -> ()
          with (Sys_error _ | Unix.Unix_error _) as exn -> disable_unlocked t exn))

  (* Read a JSONL file back, one [of_json] record per non-blank line;
     an error names the offending line as [path:line: ...]. *)
  let load of_json path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error e
    | text ->
      let rec parse acc lineno = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
          if String.trim line = "" then parse acc (lineno + 1) rest
          else (
            match Json.of_string line with
            | Error e -> Error (Printf.sprintf "%s:%d: invalid JSON: %s" path lineno e)
            | Ok json -> (
              match of_json json with
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
              | Ok v -> parse (v :: acc) (lineno + 1) rest))
      in
      parse [] 1 (String.split_on_char '\n' text)
end

(* ------------------------------------------------------------------ *)
(* Query log                                                            *)
(* ------------------------------------------------------------------ *)

module Qlog = struct
  (* v2 added the [trace_id] field.  [event_of_json] still accepts v1
     lines (trace ids default to "") so logs captured before the bump
     replay unchanged. *)
  let schema_version = 2

  let min_schema_version = 1

  type kind = Query | Batch | Update | Alert

  let kind_name = function
    | Query -> "query"
    | Batch -> "batch"
    | Update -> "update"
    | Alert -> "alert"

  let kind_of_name = function
    | "query" -> Some Query
    | "batch" -> Some Batch
    | "update" -> Some Update
    | "alert" -> Some Alert
    | _ -> None

  type event = {
    seq : int;
    ts_unix : float;
    kind : kind;
    graph_id : int;
    epoch : int;
    query : string;
    strategy : string;
    duration_ms : float;
    counters : (string * int) list;
    pairs : int;
    digest : string;
    slow : bool;
    trace_id : string;  (** "" when the request carried no trace context (or a v1 line) *)
    error : string option;
    payload : Json.t option;
  }

  (* Sink configuration (env-seeded path, size ceiling, one archived
     generation) lives in a {!Jsonl_sink}; this module only builds the
     event lines. *)
  let sink_t = Jsonl_sink.create ~label:"query log" (Sys.getenv_opt "EXPFINDER_QLOG")

  let set_max_bytes n = Jsonl_sink.set_max_bytes sink_t n

  (* Claimed atomically: alert events (sampler thread) and query events
     (handler) share the sequence space. *)
  let next_seq = Atomic.make 0

  let close () = Jsonl_sink.close sink_t

  let set_sink path = Jsonl_sink.set_path sink_t path

  let enabled () = Jsonl_sink.enabled sink_t

  let event_json e =
    Json.Obj
      (List.concat
         [
           [
             ("v", Json.Int schema_version);
             ("seq", Json.Int e.seq);
             ("ts_unix", Json.Float e.ts_unix);
             ("kind", Json.Str (kind_name e.kind));
             ("graph_id", Json.Int e.graph_id);
             ("epoch", Json.Int e.epoch);
             ("query", Json.Str e.query);
             ("strategy", Json.Str e.strategy);
             ("duration_ms", Json.Float e.duration_ms);
             ("pairs", Json.Int e.pairs);
             ("digest", Json.Str e.digest);
             ("slow", Json.Bool e.slow);
             ("trace_id", Json.Str e.trace_id);
             ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.counters));
           ];
           (match e.error with None -> [] | Some m -> [ ("error", Json.Str m) ]);
           (match e.payload with None -> [] | Some p -> [ ("payload", p) ]);
         ])

  let event_of_json json =
    let str k = Option.bind (Json.member k json) Json.str_opt in
    let int k = Option.bind (Json.member k json) Json.int_opt in
    let float k = Option.bind (Json.member k json) Json.float_opt in
    match Json.member "v" json with
    | Some (Json.Int v) when v >= min_schema_version && v <= schema_version -> (
      match (int "seq", Option.bind (str "kind") kind_of_name, str "query") with
      | Some seq, Some kind, Some query ->
        Ok
          {
            seq;
            ts_unix = Option.value ~default:0.0 (float "ts_unix");
            kind;
            graph_id = Option.value ~default:0 (int "graph_id");
            epoch = Option.value ~default:0 (int "epoch");
            query;
            strategy = Option.value ~default:"" (str "strategy");
            duration_ms = Option.value ~default:0.0 (float "duration_ms");
            counters =
              (match Json.member "counters" json with
              | Some (Json.Obj kv) ->
                List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.int_opt v)) kv
              | _ -> []);
            pairs = Option.value ~default:0 (int "pairs");
            digest = Option.value ~default:"" (str "digest");
            slow =
              (match Json.member "slow" json with Some (Json.Bool b) -> b | _ -> false);
            trace_id = Option.value ~default:"" (str "trace_id");
            error = str "error";
            payload = Json.member "payload" json;
          }
      | _ -> Error "qlog event lacks a seq, kind or query field"
      )
    | Some (Json.Int v) -> Error (Printf.sprintf "unsupported qlog schema version %d" v)
    | Some _ | None -> Error "not a qlog event (no integer \"v\" field)"

  (* Append one record under the log's own sequence number: alert
     events (sampler thread) and request records share its space. *)
  let write e =
    if Jsonl_sink.enabled sink_t then
      Jsonl_sink.emit sink_t
        (Json.to_string (event_json { e with seq = Atomic.fetch_and_add next_seq 1 }))

  let load path = Jsonl_sink.load event_of_json path
end

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  let capacity = 64

  (* Unlike spans, the recorder is always on: one
     array store per request, so there is always a tail of recent history
     to dump when something goes wrong.  The ring holds the very record
     the query log writes, under the ring's own sequence numbers.

     The ring is swapped wholesale on clear and the sequence
     counter claims slots, so both live in [Atomic]s: a reader (the
     /stats handler, the postmortem writer) always sees a coherent
     array even while another thread is recording, and two recorders
     never claim the same slot.  Slot stores stay plain writes — a
     record is immutable and boxed, so a racing reader sees either the
     old record or the new one, never a torn one. *)
  let buf : Qlog.event option array Atomic.t = Atomic.make (Array.make capacity None)

  let next_seq = Atomic.make 0

  let claim () = Atomic.fetch_and_add next_seq 1

  (* [e.seq] came from [claim]. *)
  let push (e : Qlog.event) =
    let b = Atomic.get buf in
    b.(e.seq mod capacity) <- Some e

  let recent () =
    Array.to_list (Atomic.get buf)
    |> List.filter_map Fun.id
    |> List.sort (fun (a : Qlog.event) b -> compare a.seq b.seq)

  (* Swap in a fresh array rather than filling in place: a concurrent
     [push] keeps writing its old array, which is then unreachable —
     losing that one record is fine, corrupting a shared one is not. *)
  let clear () =
    Atomic.set buf (Array.make capacity None);
    Atomic.set next_seq 0

  let event_json (e : Qlog.event) =
    Json.Obj
      [
        ("seq", Json.Int e.seq);
        ("query", Json.Str e.query);
        ("strategy", Json.Str e.strategy);
        ("duration_ms", Json.Float e.duration_ms);
        ("slow", Json.Bool e.slow);
        ("trace_id", Json.Str e.trace_id);
        ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.counters));
      ]

  let to_json () = Json.Arr (List.map event_json (recent ()))

  let pp ppf () =
    match recent () with
    | [] -> Format.fprintf ppf "flight recorder: empty@."
    | events ->
      Format.fprintf ppf
        "flight recorder: %d event(s), capacity %d, slow = at or above the op window's p99 \
         (once it holds %d requests)@."
        (List.length events) capacity Window.min_count_for_p99;
      List.iter
        (fun (e : Qlog.event) ->
          Format.fprintf ppf "  #%-4d %s %9.3f ms  %-18s %s@." e.seq
            (if e.slow then "SLOW" else "    ")
            e.duration_ms e.strategy e.query;
          match e.counters with
          | [] -> ()
          | counters ->
            Format.fprintf ppf "        %s@."
              (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%+d" k v) counters)))
        events
end

(* ------------------------------------------------------------------ *)
(* Finished requests                                                    *)
(* ------------------------------------------------------------------ *)

module Request = struct
  (* The op classes' request series exist from startup, so the
     exporters list all three before the first request. *)
  let w_query = Window.get "query"

  let w_batch = Window.get "batch"

  let w_update = Window.get "update"

  let window = function
    | Qlog.Query -> w_query
    | Qlog.Batch -> w_batch
    | Qlog.Update -> w_update
    | Qlog.Alert -> invalid_arg "Request.finish: an alert is not a request"

  let finish ~kind ~(trace : Trace.ctx) ~query ~strategy ~duration_ms ~counters ~pairs ?digest
      ?payload ?error ?root ~graph_id ~epoch () =
    let w = window kind in
    let failed = error <> None in
    let ts_unix = Unix.gettimeofday () in
    (* Judged against the window before this request joins it. *)
    let slow = Window.slow w duration_ms in
    (* The trace store's admission verdict decides the exemplar: an
       advertised trace id must resolve to a stored trace. *)
    let kept =
      Tracestore.record ~trace_id:trace.trace_id ~span_id:trace.span_id
        ~op:(Qlog.kind_name kind) ~query ~duration_ms ~error:failed ~slow ?root ()
    in
    Option.iter Profile.record root;
    Store.observe w ~error:failed ~now:ts_unix
      ?trace:(if kept then Some trace.trace_id else None)
      duration_ms;
    (* The digest and the payload are only materialised for a log sink:
       the unlogged serving path never renders either. *)
    let logged = Qlog.enabled () in
    let e =
      {
        Qlog.seq = Recorder.claim ();
        ts_unix;
        kind;
        graph_id;
        epoch;
        query;
        strategy;
        duration_ms;
        counters;
        pairs;
        digest = (match digest with Some d when logged -> Lazy.force d | _ -> "");
        slow;
        trace_id = trace.trace_id;
        error;
        payload = (if logged then Option.map Lazy.force payload else None);
      }
    in
    Recorder.push e;
    if logged then Qlog.write e
end

(* ------------------------------------------------------------------ *)
(* Time series sampling and captures                                    *)
(* ------------------------------------------------------------------ *)

(* The time-bucket store as the rest of the program sees it, with the
   periodic sampler and the persisted captures: the sampler records the
   windows' summaries, so it comes after {!Window}. *)
module Timeseries = struct
  include Store

  let sink_t = Jsonl_sink.create ~label:"timeseries log" (Sys.getenv_opt "EXPFINDER_TIMESERIES")

  let known t name = Names.mem name (Atomic.get t.registry)

  (* One sampler tick: pull every live source (the summaries of [t]'s
     request series, process gauges, registry counters) into [t] and
     append the tick to the JSONL sink.  Returns what was recorded so
     callers (tests, the sink line) see one consistent snapshot.  The
     request and error counts are not sampled: requests write them. *)
  let sample ?now ?(persist = true) t =
    let nowf = now_or now in
    let out = ref [] in
    let put kind name v =
      if Float.is_finite v then begin
        record ~now:nowf t kind name v;
        out := (name, v) :: !out
      end
    in
    (* Rate from a cumulative source: the first observation only primes
       [prev]; a value running backwards means the source was reset, in
       which case the new value is the honest delta.  Zero deltas are
       recorded only for series that already exist, so one-shot counters
       do not mint dead series every tick. *)
    let cum name v =
      let prev = Hashtbl.find_opt t.prev name in
      Hashtbl.replace t.prev name v;
      match prev with
      | None -> ()
      | Some p ->
        let d = if v >= p then v -. p else v in
        if d <> 0.0 || known t name then put Rate name d
    in
    List.iter
      (fun (op, w) ->
        let s = Window.summary ~now:nowf w in
        put Level ("win." ^ op ^ ".qps") s.Window.qps;
        put Level ("win." ^ op ^ ".error_rate") s.Window.error_rate;
        if s.Window.count > 0 then begin
          put Level ("win." ^ op ^ ".p50_ms") s.Window.p50;
          put Level ("win." ^ op ^ ".p95_ms") s.Window.p95;
          put Level ("win." ^ op ^ ".p99_ms") s.Window.p99
        end)
      (all_requests t);
    List.iter
      (fun (name, v) ->
        let v = float_of_int v in
        match name with
        | "process.rss_bytes" | "process.heap_words" | "process.gc_pause_us_max" ->
          put Level name v
        | "process.start_time_unix" | "uptime.seconds" -> ()
        | _ -> cum name v)
      (process_stats ());
    Metrics.rows ()
    |> List.iter (fun (name, m) ->
           match m with
           | Metrics.M_counter c -> cum ("m." ^ name) (float_of_int (Counter.value c))
           | Metrics.M_gauge g ->
             (* Gauges fold as levels so queue depths / backlogs get
                history.  process.* / uptime.* are already
                sampled above under their own names, and a gauge that
                has never left zero is suppressed (same policy as
                [cum]'s priming) to avoid dead series. *)
             if
               not
                 (String.length name >= 8 && String.sub name 0 8 = "process."
                 || String.length name >= 7 && String.sub name 0 7 = "uptime.")
             then begin
               let v = float_of_int (Gauge.value g) in
               let key = "m." ^ name in
               if v <> 0.0 || known t key then put Level key v
             end
           | Metrics.M_histogram _ -> ());
    let fields = List.rev !out in
    if persist && Jsonl_sink.enabled sink_t then
      Jsonl_sink.emit sink_t
        (Json.to_string
           (Json.Obj
              [
                ("v", Json.Int schema_version);
                ("ts_unix", Json.Float nowf);
                ( "fields",
                  Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) fields) );
              ]));
    fields

  (* ---- persisted-capture loading and Report conversion ---- *)

  type tick = { ts_unix : float; fields : (string * float) list }

  let tick_of_json json =
    match Json.member "v" json with
    | Some (Json.Int v) when v = schema_version -> (
      match
        ( Option.bind (Json.member "ts_unix" json) Json.float_opt,
          Json.member "fields" json )
      with
      | Some ts_unix, Some (Json.Obj kv) ->
        Ok
          {
            ts_unix;
            fields =
              List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.float_opt v)) kv;
          }
      | _ -> Error "timeseries tick lacks a ts_unix or fields object")
    | Some (Json.Int v) -> Error (Printf.sprintf "unsupported timeseries schema version %d" v)
    | Some _ | None -> Error "not a timeseries tick (no integer \"v\" field)"

  let load path = Jsonl_sink.load tick_of_json path

  (* Per-series samples over the capture, as a bench report: two soak
     captures then diff under [expfinder bench-diff] like any pair of
     bench runs. *)
  let report ?(mode = "timeseries") ticks =
    let r = Report.create ~tool:"expfinder timeseries" ~mode () in
    let order = ref [] in
    let groups : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun tick ->
        List.iter
          (fun (name, v) ->
            match Hashtbl.find_opt groups name with
            | Some cell -> cell := v :: !cell
            | None ->
              Hashtbl.add groups name (ref [ v ]);
              order := name :: !order)
          tick.fields)
      ticks;
    List.iter
      (fun name ->
        let samples = List.rev !(Hashtbl.find groups name) in
        Report.add r ~id:("TS." ^ name) ~experiment:"TS" ~units:"sample"
          ~params:[ ("ticks", Json.Int (List.length samples)) ]
          samples)
      (List.rev !order);
    r
end

(* ------------------------------------------------------------------ *)
(* SLO burn-rate alerts                                                 *)
(* ------------------------------------------------------------------ *)

module Slo = struct
  (* Multi-window burn-rate alerting in the SRE-workbook shape: an
     objective fires only when both a fast window (5 m, high burn) and a
     slow window (1 h, lower burn) agree the error budget is being spent
     too fast.  Both windows read the op's request series (its 10 s
     tier), so alerting counts the very requests /timeseries.json and
     the windows count, and costs no extra collection.  The windows and burn thresholds are the
     workbook's, fixed for every objective. *)
  let fast_s = 300

  let slow_s = 3600

  let fast_burn = 14.4

  let slow_burn = 6.0

  type objective = { oname : string; op : string; target : float }

  let availability ~op ~target () = { oname = op ^ "-availability"; op; target }

  type state = Passing | Firing

  let state_name = function Passing -> "ok" | Firing -> "firing"

  type alert = {
    objective : objective;
    mutable state : state;
    mutable since_unix : float; (* when the current state began *)
    mutable burn_fast : float;
    mutable burn_slow : float;
    mutable bad_fast : float;
    mutable bad_slow : float;
  }

  let fresh o =
    {
      objective = o;
      state = Passing;
      since_unix = start_unix;
      burn_fast = 0.0;
      burn_slow = 0.0;
      bad_fast = 0.0;
      bad_slow = 0.0;
    }

  (* The sampler thread swaps/updates the alert list; the /alerts.json
     handler reads it.  The list cells are immutable, so an atomic swap
     of the list head is the whole protocol; the per-alert mutable
     fields are written only by the sampler (single writer) and a torn
     read moves one burn-rate sample.  It starts as 99% availability
     per op class. *)
  let active : alert list Atomic.t =
    Atomic.make
      (List.map
         (fun op -> fresh (availability ~op ~target:0.99 ()))
         [ "query"; "batch"; "update" ])

  let set_objectives objs = Atomic.set active (List.map fresh objs)

  let alerts () = Atomic.get active

  (* Fraction of the window's requests that errored, from the request
     series' [req.<op>] and [err.<op>] views. *)
  let bad_fraction ~now ts op ~seconds =
    let req = Timeseries.window_sum ~now ts ~seconds ("req." ^ op) in
    let err = Timeseries.window_sum ~now ts ~seconds ("err." ^ op) in
    if req <= 0.0 then 0.0 else Float.min 1.0 (err /. req)

  let alert_json a =
    let o = a.objective in
    Json.Obj
      [
        ("name", Json.Str o.oname);
        ("op", Json.Str o.op);
        ("kind", Json.Str "availability");
        ("target", Json.Float o.target);
        ("fast_s", Json.Int fast_s);
        ("slow_s", Json.Int slow_s);
        ("fast_burn_threshold", Json.Float fast_burn);
        ("slow_burn_threshold", Json.Float slow_burn);
        ("state", Json.Str (state_name a.state));
        ("firing", Json.Bool (a.state = Firing));
        ("burn_fast", Json.Float a.burn_fast);
        ("burn_slow", Json.Float a.burn_slow);
        ("bad_fast", Json.Float a.bad_fast);
        ("bad_slow", Json.Float a.bad_slow);
        ("since_unix", Json.Float a.since_unix);
      ]

  let evaluate_one ~now ts a =
    let o = a.objective in
    a.bad_fast <- bad_fraction ~now ts o.op ~seconds:fast_s;
    a.bad_slow <- bad_fraction ~now ts o.op ~seconds:slow_s;
    let budget = Float.max 1e-9 (1.0 -. o.target) in
    a.burn_fast <- a.bad_fast /. budget;
    a.burn_slow <- a.bad_slow /. budget;
    let next = if a.burn_fast >= fast_burn && a.burn_slow >= slow_burn then Firing else Passing in
    if next <> a.state then begin
      a.state <- next;
      a.since_unix <- now;
      (* Transitions land in the query log so a workload capture carries
         its own alert history. *)
      Qlog.write
        {
          seq = 0;
          ts_unix = Unix.gettimeofday ();
          kind = Alert;
          graph_id = 0;
          epoch = 0;
          query = o.oname;
          strategy = (match next with Firing -> "firing" | Passing -> "resolved");
          duration_ms = 0.0;
          counters = [];
          pairs = 0;
          digest = "";
          slow = false;
          trace_id = "";
          error = None;
          payload = Some (alert_json a);
        }
    end

  let evaluate ?now ?(ts = Timeseries.shared) () =
    let now = Timeseries.now_or now in
    let alerts = Atomic.get active in
    List.iter (evaluate_one ~now ts) alerts;
    alerts

  let to_json ?now () =
    let now = Timeseries.now_or now in
    Json.Obj
      [
        ("v", Json.Int 1);
        ("now_unix", Json.Float now);
        ("alerts", Json.Arr (List.map alert_json (alerts ())));
      ]
end

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                           *)
(* ------------------------------------------------------------------ *)

module Prometheus = struct
  (* Prometheus metric names admit [a-zA-Z0-9_:] only; the registry's
     dotted names map '.' (and any other byte) to '_', under an
     "expfinder_" namespace prefix. *)
  let sanitize name =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

  let metric_name name = "expfinder_" ^ sanitize name

  (* Two registry names may sanitize to the same token ("a.b" and
     "a:b" both become "a_b"); exposing both under one name would emit
     duplicate series.  Every member of a colliding set gets a short
     digest of its original name appended, which is deterministic and
     independent of registration order. *)
  let exposition_name ~taken name =
    let n = metric_name name in
    if Option.value ~default:0 (Hashtbl.find_opt taken n) > 1 then
      n ^ "_" ^ String.sub (Digest.to_hex (Digest.string name)) 0 6
    else n

  (* HELP text and label values have their own escaping rules in the
     exposition format: backslash and newline (plus double-quote inside
     label values). *)
  let help_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let label_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let add_float buf f =
    if Float.is_nan f then Buffer.add_string buf "NaN"
    else if f = Float.infinity then Buffer.add_string buf "+Inf"
    else if f = Float.neg_infinity then Buffer.add_string buf "-Inf"
    else Buffer.add_string buf (Printf.sprintf "%.9g" f)

  let render () =
    ignore (process_stats () : (string * int) list);
    let buf = Buffer.create 4096 in
    let line_int name v =
      Buffer.add_string buf name;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf '\n'
    in
    let line_float name v =
      Buffer.add_string buf name;
      Buffer.add_char buf ' ';
      add_float buf v;
      Buffer.add_char buf '\n'
    in
    let typ name kind = Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind) in
    let help name text =
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (help_escape text))
    in
    let rows = Metrics.rows () in
    let taken = Hashtbl.create 64 in
    List.iter
      (fun (name, _) ->
        let n = metric_name name in
        Hashtbl.replace taken n (1 + Option.value ~default:0 (Hashtbl.find_opt taken n)))
      rows;
    List.iter
      (fun (name, m) ->
        let n = exposition_name ~taken name in
        help n (Printf.sprintf "ExpFinder registry metric %s" name);
        match m with
        | Metrics.M_counter c ->
          typ n "counter";
          line_int n (Counter.value c)
        | Metrics.M_gauge g ->
          typ n "gauge";
          line_int n (Gauge.value g)
        | Metrics.M_histogram h ->
          typ n "summary";
          if Histogram.count h > 0 then
            List.iter
              (fun (q, p) ->
                line_float (Printf.sprintf "%s{quantile=\"%s\"}" n q) (Histogram.percentile h p))
              [ ("0.5", 0.5); ("0.95", 0.95); ("0.99", 0.99) ];
          line_float (n ^ "_sum") (Histogram.sum h);
          line_int (n ^ "_count") (Histogram.count h))
      rows;
    (* Sliding windows: live QPS / error rate / latency quantiles per
       operation class, as gauges over the last [window_s] seconds. *)
    let windows = Window.all () in
    if windows <> [] then begin
      List.iter
        (fun (tn, htext) ->
          help tn htext;
          typ tn "gauge")
        [
          ("expfinder_window_seconds", "Length of the sliding window, per op class");
          ("expfinder_window_requests", "Requests observed in the sliding window");
          ("expfinder_window_errors", "Errors observed in the sliding window");
          ("expfinder_qps", "Mean request rate over the sliding window");
          ("expfinder_error_rate", "Error fraction over the sliding window");
          ("expfinder_latency_ms", "Latency quantiles over the sliding window");
        ];
      List.iter
        (fun (op, w) ->
          let s = Window.summary w in
          let lbl fmt = Printf.sprintf fmt (sanitize op) in
          line_int (lbl "expfinder_window_seconds{op=\"%s\"}") s.Window.window_s;
          line_int (lbl "expfinder_window_requests{op=\"%s\"}") s.Window.count;
          line_int (lbl "expfinder_window_errors{op=\"%s\"}") s.Window.errors;
          line_float (lbl "expfinder_qps{op=\"%s\"}") s.Window.qps;
          line_float (lbl "expfinder_error_rate{op=\"%s\"}") s.Window.error_rate;
          if s.Window.count > 0 then begin
            line_float
              (Printf.sprintf "expfinder_latency_ms{op=\"%s\",quantile=\"0.5\"}" (sanitize op))
              s.Window.p50;
            line_float
              (Printf.sprintf "expfinder_latency_ms{op=\"%s\",quantile=\"0.95\"}" (sanitize op))
              s.Window.p95;
            line_float
              (Printf.sprintf "expfinder_latency_ms{op=\"%s\",quantile=\"0.99\"}" (sanitize op))
              s.Window.p99
          end;
          (* OpenMetrics-style exemplar annotations: each latency
             bucket that has seen an admitted trace advertises that
             trace's id so a scraped percentile can be chased to the
             stored span tree in /traces.json.  Rendered as comments —
             the classic text format has no exemplar syntax, and
             comments pass every Prometheus parser untouched. *)
          List.iter
            (fun (e : Window.exemplar) ->
              Buffer.add_string buf
                (Printf.sprintf
                   "# EXEMPLAR expfinder_latency_ms{op=\"%s\",le=\"%.9g\"} %.9g {trace_id=\"%s\"} %.3f\n"
                   (sanitize op) e.Window.ex_le e.Window.ex_value_ms
                   (label_escape e.Window.ex_trace_id) e.Window.ex_ts_unix))
            (Window.exemplars w))
        windows
    end;
    (* SLO alert state, as last evaluated by the sampler: render never
       re-evaluates, so scraping cannot mutate alert state. *)
    (match Slo.alerts () with
    | [] -> ()
    | alerts ->
      help "expfinder_alert_active" "1 while the SLO burn-rate alert is firing";
      typ "expfinder_alert_active" "gauge";
      help "expfinder_alert_burn" "Error-budget burn rate per alert window";
      typ "expfinder_alert_burn" "gauge";
      List.iter
        (fun (a : Slo.alert) ->
          let o = a.Slo.objective in
          let name = label_escape o.Slo.oname and op = label_escape o.Slo.op in
          line_int
            (Printf.sprintf "expfinder_alert_active{alert=\"%s\",op=\"%s\"}" name op)
            (match a.Slo.state with Slo.Firing -> 1 | Slo.Passing -> 0);
          line_float
            (Printf.sprintf "expfinder_alert_burn{alert=\"%s\",op=\"%s\",window=\"fast\"}" name op)
            a.Slo.burn_fast;
          line_float
            (Printf.sprintf "expfinder_alert_burn{alert=\"%s\",op=\"%s\",window=\"slow\"}" name op)
            a.Slo.burn_slow)
        alerts);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Postmortem dumps                                                     *)
(* ------------------------------------------------------------------ *)

module Postmortem = struct
  let schema_version = 1

  let normalize = function Some "" -> None | other -> other

  let dir_ref = ref (normalize (Sys.getenv_opt "EXPFINDER_POSTMORTEM_DIR"))

  let set_dir d = dir_ref := normalize d

  let expfinder_env () =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun binding ->
           match String.index_opt binding '=' with
           | Some i when String.length binding > 10 && String.sub binding 0 10 = "EXPFINDER_" ->
             Some
               ( String.sub binding 0 i,
                 Json.Str (String.sub binding (i + 1) (String.length binding - i - 1)) )
           | _ -> None)
    |> List.sort compare

  (* Everything a 3am debugging session wants in one artifact: identity
     and configuration, the op-class windows, active alerts, the full
     metrics registry, the flight-recorder tail, the last two minutes of
     every timeseries and GC totals. *)
  let document ?(reason = "unspecified") () =
    let now = Unix.gettimeofday () in
    let gc = Gc.quick_stat () in
    Json.Obj
      [
        ("v", Json.Int schema_version);
        ("reason", Json.Str reason);
        ("ts_unix", Json.Float now);
        ("pid", Json.Int (Unix.getpid ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("argv", Json.Arr (Array.to_list (Array.map (fun s -> Json.Str s) Sys.argv)));
        ("start_unix", Json.Float start_unix);
        ("uptime_s", Json.Float (Float.max 0.0 (now -. start_unix)));
        ("env", Json.Obj (expfinder_env ()));
        ( "gc",
          Json.Obj
            [
              ("heap_words", Json.Int gc.Gc.heap_words);
              ("minor_words", Json.Float gc.Gc.minor_words);
              ("major_words", Json.Float gc.Gc.major_words);
              ("minor_collections", Json.Int gc.Gc.minor_collections);
              ("major_collections", Json.Int gc.Gc.major_collections);
              ("compactions", Json.Int gc.Gc.compactions);
              ("pause_us_total", Json.Int (Gcpause.pause_us_total ()));
              ("pause_us_max", Json.Int (Gcpause.pause_us_max ()));
            ] );
        ( "windows",
          Json.Obj
            (List.map
               (fun (op, w) -> (op, Window.summary_json (Window.summary w)))
               (Window.all ())) );
        ("alerts", Slo.to_json ~now ());
        ("metrics", Metrics.to_json ());
        ("recorder", Recorder.to_json ());
        ("timeseries", Timeseries.to_json ~now ~max_points:120 Timeseries.shared);
      ]

  (* Atomic by construction: the document is written to a dot-tmp
     sibling and renamed into place, so a reader never sees a torn
     artifact.  Any failure returns None — a postmortem writer that
     raises during a crash would mask the original failure. *)
  let write ?reason () =
    match !dir_ref with
    | None -> None
    | Some dir -> (
      try
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let name =
          Printf.sprintf "postmortem-%d-%.0f.json" (Unix.getpid ())
            (Unix.gettimeofday () *. 1000.0)
        in
        let path = Filename.concat dir name in
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Json.to_string ~pretty:true (document ?reason ())));
        Sys.rename tmp path;
        Some path
      with _ -> None)

  let load path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error e
    | text -> (
      match Json.of_string text with
      | Error e -> Error ("invalid JSON: " ^ e)
      | Ok json -> (
        match Json.member "v" json with
        | Some (Json.Int v) when v = schema_version -> Ok json
        | Some (Json.Int v) ->
          Error (Printf.sprintf "unsupported postmortem schema version %d" v)
        | Some _ | None -> Error "not a postmortem artifact (no integer \"v\" field)"))

  let pp ppf doc =
    let str k = Option.bind (Json.member k doc) Json.str_opt in
    let float k = Option.bind (Json.member k doc) Json.float_opt in
    let int k = Option.bind (Json.member k doc) Json.int_opt in
    Format.fprintf ppf "@[<v>postmortem: %s@,"
      (Option.value ~default:"?" (str "reason"));
    (match (int "pid", float "uptime_s", str "ocaml") with
    | Some pid, Some up, Some ocaml ->
      Format.fprintf ppf "pid %d, up %.1f s, ocaml %s@," pid up ocaml
    | _ -> ());
    (match float "ts_unix" with
    | Some ts ->
      let tm = Unix.gmtime ts in
      Format.fprintf ppf "written %04d-%02d-%02dT%02d:%02d:%02dZ@," (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    | None -> ());
    (match Option.bind (Json.member "alerts" doc) (Json.member "alerts") with
    | Some (Json.Arr alerts) ->
      let firing =
        List.filter
          (fun a -> Json.member "firing" a = Some (Json.Bool true))
          alerts
      in
      if firing = [] then Format.fprintf ppf "alerts: %d configured, none firing@," (List.length alerts)
      else
        List.iter
          (fun a ->
            Format.fprintf ppf "alerts: FIRING %s (burn fast %.1f / slow %.1f)@,"
              (Option.value ~default:"?" (Option.bind (Json.member "name" a) Json.str_opt))
              (Option.value ~default:nan
                 (Option.bind (Json.member "burn_fast" a) Json.float_opt))
              (Option.value ~default:nan
                 (Option.bind (Json.member "burn_slow" a) Json.float_opt)))
          firing
    | _ -> ());
    (match Json.member "windows" doc with
    | Some (Json.Obj windows) ->
      List.iter
        (fun (op, s) ->
          match Window.summary_of_json s with
          | Some s -> Format.fprintf ppf "%-8s %a@," op Window.pp_summary s
          | None -> ())
        windows
    | _ -> ());
    (match Json.member "gc" doc with
    | Some gc ->
      let gint k = Option.value ~default:0 (Option.bind (Json.member k gc) Json.int_opt) in
      Format.fprintf ppf
        "gc: heap %.1f MiB, %d minor / %d major collections, pauses %.1f ms total, %.2f ms max@,"
        (float_of_int (gint "heap_words" * (Sys.word_size / 8)) /. 1048576.0)
        (gint "minor_collections") (gint "major_collections")
        (float_of_int (gint "pause_us_total") /. 1000.0)
        (float_of_int (gint "pause_us_max") /. 1000.0)
    | None -> ());
    (match Option.bind (Json.member "recorder" doc) Json.list_opt with
    | Some events -> Format.fprintf ppf "flight recorder: %d event(s)@," (List.length events)
    | None -> ());
    (match Option.bind (Json.member "timeseries" doc) (Json.member "series_kinds") with
    | Some (Json.Obj kinds) -> Format.fprintf ppf "timeseries: %d series@," (List.length kinds)
    | _ -> ());
    Format.fprintf ppf "@]"
end
