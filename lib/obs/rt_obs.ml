(* Global observability sink.  The enabled flag is the only thing the
   disabled path ever touches: one atomic load, one branch, no allocation —
   the overhead budget that lets the library's hot loops stay instrumented
   permanently.  Recording itself takes a mutex (spans are emitted at
   region/phase granularity, so contention is negligible next to the work
   being timed); counters are plain atomics and histogram observation is
   lock-free (atomic bucket increments plus CAS loops for sum/min/max). *)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let now_us () = Unix.gettimeofday () *. 1e6

(* --- spans ---------------------------------------------------------------- *)

type event = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  tid : int;
}

let lock = Mutex.create ()
let events_rev : event list ref = ref []

let record ev =
  Mutex.lock lock;
  events_rev := ev :: !events_rev;
  Mutex.unlock lock

let span_begin () = if Atomic.get on then now_us () else Float.neg_infinity

let span_end ?(cat = "span") name t0 =
  if t0 > Float.neg_infinity then begin
    let dur = Float.max 0.0 (now_us () -. t0) in
    record { name; cat; ts_us = t0; dur_us = dur; tid = (Domain.self () :> int) }
  end

let with_span ?cat name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_us () in
    match f () with
    | v ->
      span_end ?cat name t0;
      v
    | exception e ->
      span_end ?cat name t0;
      raise e
  end

let events () =
  Mutex.lock lock;
  let evs = !events_rev in
  Mutex.unlock lock;
  List.rev evs

(* --- counters / gauges ----------------------------------------------------- *)

type counter = int Atomic.t
type gauge = float Atomic.t

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let registered tbl make name =
  Mutex.lock lock;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.add tbl name v;
      v
  in
  Mutex.unlock lock;
  v

let counter name = registered counters (fun () -> Atomic.make 0) name
let gauge name = registered gauges (fun () -> Atomic.make 0.0) name
let incr c = if Atomic.get on then ignore (Atomic.fetch_and_add c 1)
let add c k = if Atomic.get on then ignore (Atomic.fetch_and_add c k)
let value c = Atomic.get c
let gauge_set g v = if Atomic.get on then Atomic.set g v
let gauge_value g = Atomic.get g

let snapshot tbl get =
  Mutex.lock lock;
  let xs = Hashtbl.fold (fun name v acc -> (name, get v) :: acc) tbl [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) xs

let counters_snapshot () = snapshot counters Atomic.get
let gauges_snapshot () = snapshot gauges Atomic.get

(* --- histograms ------------------------------------------------------------

   Fixed log-bucketed layout shared by every histogram: [buckets_per_decade]
   buckets per decade over [10^lo_exp, 10^hi_exp], plus an underflow bucket
   (index 0, everything <= 10^lo_exp) and an overflow bucket (last index,
   upper bound +inf).  A shared layout makes merging lossless and trivially
   associative/commutative: add the bucket arrays element-wise.  The bucket
   index is found by binary search over the precomputed upper bounds — no
   [log10] at observe time, and a value is *always* counted in a bucket
   whose upper bound is >= the value, so reported quantiles are upper
   bounds of the true sample quantiles (within one bucket ratio). *)

let buckets_per_decade = 4
let lo_exp = -9
let hi_exp = 9
let bucket_ratio = Float.pow 10.0 (1.0 /. Float.of_int buckets_per_decade)
let n_core = (hi_exp - lo_exp) * buckets_per_decade

(* upper bounds for buckets 0 .. n_core; bucket n_core + 1 is +inf *)
let bounds =
  Array.init (n_core + 1) (fun i ->
      Float.pow 10.0 (Float.of_int lo_exp +. (Float.of_int i /. Float.of_int buckets_per_decade)))

let n_buckets = n_core + 2
let bucket_upper i = if i >= n_buckets - 1 then Float.infinity else bounds.(i)

let bucket_index v =
  if Float.is_nan v || v <= bounds.(0) then 0
  else if v > bounds.(n_core) then n_buckets - 1
  else begin
    (* smallest i with bounds.(i) >= v; invariant: bounds.(hi) >= v *)
    let lo = ref 0 and hi = ref n_core in
    while !hi - !lo > 0 do
      let mid = (!lo + !hi) / 2 in
      if bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !hi
  end

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
  h_buckets : int Atomic.t array;
}

type hsnap = {
  count : int;
  sum : float;
  min : float;  (* +inf when empty *)
  max : float;  (* -inf when empty *)
  buckets : int array;  (* length [n_buckets] *)
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram name =
  registered histograms
    (fun () ->
      { h_name = name;
        h_count = Atomic.make 0;
        h_sum = Atomic.make 0.0;
        h_min = Atomic.make Float.infinity;
        h_max = Atomic.make Float.neg_infinity;
        h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0) })
    name

let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

let rec atomic_fold_float a better x =
  let cur = Atomic.get a in
  if better x cur && not (Atomic.compare_and_set a cur x) then atomic_fold_float a better x

let observe_always h v =
  ignore (Atomic.fetch_and_add h.h_count 1);
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) 1);
  atomic_add_float h.h_sum v;
  atomic_fold_float h.h_min (fun x cur -> x < cur) v;
  atomic_fold_float h.h_max (fun x cur -> x > cur) v

let observe h v = if Atomic.get on then observe_always h v

let span_end_h ?(cat = "span") name h t0 =
  if t0 > Float.neg_infinity then begin
    (* One clock read feeds both the event and the histogram, so the two
       views of the span duration are identical. *)
    let dur = Float.max 0.0 (now_us () -. t0) in
    record { name; cat; ts_us = t0; dur_us = dur; tid = (Domain.self () :> int) };
    observe_always h dur
  end

let with_span_h ?cat name h f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_us () in
    match f () with
    | v ->
      span_end_h ?cat name h t0;
      v
    | exception e ->
      span_end_h ?cat name h t0;
      raise e
  end

let histogram_snapshot h =
  { count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
    min = Atomic.get h.h_min;
    max = Atomic.get h.h_max;
    buckets = Array.map Atomic.get h.h_buckets }

let histograms_snapshot () =
  snapshot histograms histogram_snapshot
  |> List.filter (fun (_, s) -> s.count > 0)

let hsnap_empty =
  { count = 0;
    sum = 0.0;
    min = Float.infinity;
    max = Float.neg_infinity;
    buckets = Array.make n_buckets 0 }

let hsnap_of_samples xs =
  let buckets = Array.make n_buckets 0 in
  let sum = ref 0.0 and mn = ref Float.infinity and mx = ref Float.neg_infinity in
  Array.iter
    (fun v ->
      buckets.(bucket_index v) <- buckets.(bucket_index v) + 1;
      sum := !sum +. v;
      if v < !mn then mn := v;
      if v > !mx then mx := v)
    xs;
  { count = Array.length xs; sum = !sum; min = !mn; max = !mx; buckets }

let hsnap_merge a b =
  { count = a.count + b.count;
    sum = a.sum +. b.sum;
    min = Float.min a.min b.min;
    max = Float.max a.max b.max;
    buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i)) }

(* Upper bound of the true sample quantile: the rank-th smallest sample lies
   in the bucket where the cumulative count reaches the rank, and every
   sample in a bucket is <= its upper bound (and <= the exact max). *)
let hsnap_quantile s q =
  if s.count = 0 then Float.nan
  else if q <= 0.0 then s.min
  else begin
    let rank = Stdlib.min s.count (int_of_float (Float.ceil (q *. Float.of_int s.count))) in
    let rank = Stdlib.max 1 rank in
    let acc = ref 0 and i = ref 0 in
    while !acc < rank && !i < n_buckets do
      acc := !acc + s.buckets.(!i);
      if !acc < rank then Stdlib.incr i
    done;
    Float.min (bucket_upper !i) s.max
  end

(* --- GC gauges --------------------------------------------------------------

   Cheap heap gauges from [Gc.quick_stat], refreshed at phase boundaries
   (sweep ends, artifact writes).  Gated like everything
   else: free when recording is off. *)

let g_minor_words = gauge "gc.minor_words"
let g_major_words = gauge "gc.major_words"
let g_heap_words = gauge "gc.heap_words"
let g_minor_collections = gauge "gc.minor_collections"
let g_major_collections = gauge "gc.major_collections"

let sample_gc () =
  if Atomic.get on then begin
    let s = Gc.quick_stat () in
    gauge_set g_minor_words s.Gc.minor_words;
    gauge_set g_major_words s.Gc.major_words;
    gauge_set g_heap_words (Float.of_int s.Gc.heap_words);
    gauge_set g_minor_collections (Float.of_int s.Gc.minor_collections);
    gauge_set g_major_collections (Float.of_int s.Gc.major_collections)
  end

let clear () =
  Mutex.lock lock;
  events_rev := [];
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.0) gauges;
  Hashtbl.iter
    (fun _ h ->
      Atomic.set h.h_count 0;
      Atomic.set h.h_sum 0.0;
      Atomic.set h.h_min Float.infinity;
      Atomic.set h.h_max Float.neg_infinity;
      Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
    histograms;
  Mutex.unlock lock

(* --- JSON ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* A float that is always valid JSON (JSON has no inf/nan literals). *)
let json_float v =
  if Float.is_nan v then "null"
  else if v = Float.infinity then "1e999"
  else if v = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%.17g" v

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let parse (s : string) : t =
    let pos = ref 0 in
    let len = String.length s in
    let peek () = if !pos < len then s.[!pos] else '\x00' in
    let advance () = Stdlib.incr pos in
    let fail msg = failwith (Printf.sprintf "JSON parse error at %d: %s" !pos msg) in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect ch =
      if peek () <> ch then fail (Printf.sprintf "expected %c, got %c" ch (peek ()));
      advance ()
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_body () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\x0c'
           | 'u' ->
             if !pos + 4 >= len then fail "truncated \\u escape";
             let hex = String.sub s (!pos + 1) 4 in
             let code = int_of_string ("0x" ^ hex) in
             (* our emitters only escape control characters this way *)
             Buffer.add_char buf (Char.chr (code land 0xff));
             pos := !pos + 4
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          advance ();
          go ()
        | '\x00' -> fail "unterminated string"
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while is_num_char (peek ()) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              members ((key, v) :: acc)
            | '}' ->
              advance ();
              Obj (List.rev ((key, v) :: acc))
            | c -> fail (Printf.sprintf "expected , or } in object, got %c" c)
          in
          members []
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              elements (v :: acc)
            | ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | c -> fail (Printf.sprintf "expected , or ] in array, got %c" c)
          in
          elements []
        end
      | '"' -> Str (string_body ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
    in
    let v = value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v

  let member name = function
    | Obj fields -> List.assoc_opt name fields
    | _ -> None

  let to_float = function
    | Num f -> Some f
    | _ -> None

  let to_string = function
    | Str s -> Some s
    | _ -> None

  let num_members = function
    | Obj fields -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (to_float v)) fields
    | _ -> []
end

let trace_json () =
  let span ev =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}"
      (json_escape ev.name) (json_escape ev.cat) ev.ts_us ev.dur_us ev.tid
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.map span (events ()))
  ^ "\n]}\n"

let hsnap_json s =
  let qs =
    [ ("p50", hsnap_quantile s 0.5); ("p90", hsnap_quantile s 0.9); ("p99", hsnap_quantile s 0.99) ]
  in
  let buckets =
    Array.to_list s.buckets
    |> List.mapi (fun i c -> (i, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.map (fun (i, c) -> Printf.sprintf "[%s, %d]" (json_float (bucket_upper i)) c)
    |> String.concat ", "
  in
  Printf.sprintf "{\"count\": %d, \"sum\": %s, \"min\": %s, \"max\": %s, %s, \"buckets\": [%s]}"
    s.count (json_float s.sum) (json_float s.min) (json_float s.max)
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_float v)) qs))
    buckets

let metrics_json () =
  let buf = Buffer.create 1024 in
  let obj add xs =
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (Printf.sprintf "    \"%s\": " (json_escape name));
        add v)
      xs
  in
  Buffer.add_string buf "{\n  \"schema\": \"optprob-metrics/2\",\n  \"counters\": {\n";
  obj (fun v -> Buffer.add_string buf (string_of_int v)) (counters_snapshot ());
  Buffer.add_string buf "\n  },\n  \"gauges\": {\n";
  obj (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g" v)) (gauges_snapshot ());
  Buffer.add_string buf "\n  },\n  \"histograms\": {\n";
  obj (fun s -> Buffer.add_string buf (hsnap_json s)) (histograms_snapshot ());
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

(* Atomic file write, shared by run artifacts and the pipeline's stage
   store: a crash in the middle of a write must not leave a torn file
   behind, so write a sibling temp file and rename it into place —
   [Sys.rename] replaces atomically on POSIX.  The temp name carries pid
   *and* domain id so concurrent writers of one path (two processes on
   one --work-dir, or two domains) never share the sibling.  Binary mode:
   the stage store writes [Marshal] payloads. *)
let write_file path s =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) ((Domain.self () :> int))
  in
  let oc = open_out_bin tmp in
  (try output_string oc s
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- human-readable summary ------------------------------------------------ *)

(* Rebuild span nesting per domain from the complete events: sort by start
   (ties: longer first, i.e. parent before child) and keep a stack of open
   ancestors; an event whose start falls inside the stack top is its child.
   A 1 µs slack absorbs clock granularity at shared boundaries. *)
type node = { ev : event; mutable children : node list }

let forest evs =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let cur = try Hashtbl.find by_tid e.tid with Not_found -> [] in
      Hashtbl.replace by_tid e.tid (e :: cur))
    evs;
  let contains outer e =
    e.ts_us >= outer.ts_us -. 1.0 && e.ts_us +. e.dur_us <= outer.ts_us +. outer.dur_us +. 1.0
  in
  let tids = List.sort compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid []) in
  List.concat_map
    (fun tid ->
      let es =
        List.sort
          (fun a b ->
            match Float.compare a.ts_us b.ts_us with
            | 0 -> Float.compare b.dur_us a.dur_us
            | c -> c)
          (Hashtbl.find by_tid tid)
      in
      let roots = ref [] in
      let stack = ref [] in
      List.iter
        (fun e ->
          let n = { ev = e; children = [] } in
          while (match !stack with top :: _ -> not (contains top.ev e) | [] -> false) do
            stack := List.tl !stack
          done;
          (match !stack with
           | top :: _ -> top.children <- n :: top.children
           | [] -> roots := n :: !roots);
          stack := n :: !stack)
        es;
      List.rev !roots)
    tids

let pp_summary ppf =
  let rec print indent nodes =
    (* Aggregate siblings by (name, cat), preserving first-seen order. *)
    let order = ref [] in
    let groups = Hashtbl.create 8 in
    List.iter
      (fun n ->
        let key = (n.ev.name, n.ev.cat) in
        (match Hashtbl.find_opt groups key with
         | Some (cnt, tot, kids) -> Hashtbl.replace groups key (cnt + 1, tot +. n.ev.dur_us, n.children @ kids)
         | None ->
           order := key :: !order;
           Hashtbl.replace groups key (1, n.ev.dur_us, n.children));
        ())
      nodes;
    List.iter
      (fun key ->
        let name, _ = key in
        let cnt, tot, kids = Hashtbl.find groups key in
        let label = indent ^ name in
        Format.fprintf ppf "  %-42s %8d x %12.2f ms@." label cnt (tot /. 1000.0);
        print (indent ^ "  ") (List.rev kids))
      (List.rev !order)
  in
  let evs = events () in
  if evs <> [] then begin
    Format.fprintf ppf "spans (aggregated by nesting):@.";
    print "" (forest evs)
  end;
  let cs = List.filter (fun (_, v) -> v <> 0) (counters_snapshot ()) in
  if cs <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-44s %12d@." name v) cs
  end;
  let gs = gauges_snapshot () in
  if gs <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-44s %12.1f@." name v) gs
  end;
  let hs = histograms_snapshot () in
  if hs <> [] then begin
    Format.fprintf ppf "histograms (quantiles are bucket upper bounds):@.";
    Format.fprintf ppf "  %-44s %8s %10s %10s %10s %10s@." "" "count" "p50" "p90" "p99" "max";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf "  %-44s %8d %10.4g %10.4g %10.4g %10.4g@." name s.count
          (hsnap_quantile s 0.5) (hsnap_quantile s 0.9) (hsnap_quantile s 0.99) s.max)
      hs
  end

(* --- convergence recorder --------------------------------------------------- *)

module Convergence = struct
  type row = {
    stage : string;
    sweep : int;
    j : float;
    n : float;
    y : float array;
    pf : hsnap option;
    objective : string;
  }

  type t = { mutable rows_rev : row list }

  let create () = { rows_rev = [] }

  let record t ?pf ?(objective = "single") ~stage ~sweep ~j ~n ~y () =
    t.rows_rev <- { stage; sweep; j; n; y = Array.copy y; pf; objective } :: t.rows_rev

  let rows t = List.rev t.rows_rev

  let pf_quantiles = [ ("p1", 0.01); ("p10", 0.1); ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

  let to_json t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"schema\": \"optprob-convergence/2\",\n  \"rows\": [\n";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"stage\": \"%s\", \"objective\": \"%s\", \"sweep\": %d, \"j_n\": %.17g, \"n\": %s, \"y\": [%s]"
             (json_escape r.stage) (json_escape r.objective) r.sweep r.j (json_float r.n)
             (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.17g") r.y))));
        (match r.pf with
         | Some s ->
           Buffer.add_string buf
             (Printf.sprintf ", \"pf\": {\"count\": %d, \"min\": %s, %s, \"max\": %s}" s.count
                (json_float s.min)
                (String.concat ", "
                   (List.map
                      (fun (k, q) ->
                        Printf.sprintf "\"%s\": %s" k (json_float (hsnap_quantile s q)))
                      pf_quantiles))
                (json_float s.max))
         | None -> ());
        Buffer.add_string buf "}")
      (rows t);
    Buffer.add_string buf "\n  ]\n}\n";
    Buffer.contents buf
end

(* --- run artifacts ----------------------------------------------------------

   One `--obs-dir DIR` run writes a self-describing artifact directory:
   manifest.json (provenance), metrics.json (counters + gauges +
   histograms), trace.json (Perfetto: spans) and, when a
   convergence recorder exists, convergence.json.
   [read] parses a directory back into a [run], the one form `obs diff`
   consumes. *)

module Artifact = struct
  type manifest = {
    argv : string array;
    engine : string option;
    seed : int option;
    jobs : int option;
    circuit : string option;
    patterns : int option;
    block_words : int option;
    opt_passes : string list option;
    opt_rounds : int option;
    objective : string option;
    wall_s : float;
  }

  let make_manifest ?engine ?seed ?jobs ?circuit ?patterns ?block_words ?opt_passes
      ?opt_rounds ?objective ~argv ~wall_s () =
    { argv; engine; seed; jobs; circuit; patterns; block_words; opt_passes; opt_rounds;
      objective; wall_s }

  (* Best effort, no subprocess: $OPTPROB_GIT_REV wins, else follow
     .git/HEAD upward from the cwd.  A symbolic HEAD resolves through the
     loose ref file or, after `git gc`/`git pack-refs`, the
     `<hash> <ref>` lines of .git/packed-refs; an unresolvable ref is
     "unknown", never the "ref: ..." text. *)
  let git_rev () =
    match Sys.getenv_opt "OPTPROB_GIT_REV" with
    | Some rev when rev <> "" -> rev
    | _ -> (
      let rec find dir depth =
        if depth > 6 then None
        else begin
          let head = Filename.concat dir (Filename.concat ".git" "HEAD") in
          if Sys.file_exists head then Some (dir, head)
          else begin
            let parent = Filename.dirname dir in
            if parent = dir then None else find parent (depth + 1)
          end
        end
      in
      try
        match find (Sys.getcwd ()) 0 with
        | None -> "unknown"
        | Some (dir, head) ->
          let content = String.trim (read_file head) in
          if String.length content > 5 && String.sub content 0 5 = "ref: " then begin
            let ref_path = String.sub content 5 (String.length content - 5) in
            let git = Filename.concat dir ".git" in
            let loose = Filename.concat git ref_path in
            if Sys.file_exists loose then String.trim (read_file loose)
            else
              String.split_on_char '\n' (read_file (Filename.concat git "packed-refs"))
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' (String.trim line) with
                     | [ hash; r ] when r = ref_path -> Some hash
                     | _ -> None)
              |> Option.value ~default:"unknown"
          end
          else content
      with _ -> "unknown")

  let manifest_json m =
    let opt_str = function Some s -> Printf.sprintf "\"%s\"" (json_escape s) | None -> "null" in
    let opt_int = function Some i -> string_of_int i | None -> "null" in
    let argv =
      String.concat ", "
        (Array.to_list (Array.map (fun a -> Printf.sprintf "\"%s\"" (json_escape a)) m.argv))
    in
    let opt_list = function
      | Some l ->
        Printf.sprintf "[%s]"
          (String.concat ", " (List.map (fun s -> Printf.sprintf "\"%s\"" (json_escape s)) l))
      | None -> "null"
    in
    String.concat ""
      [ "{\n  \"schema\": \"optprob-manifest/2\",\n";
        Printf.sprintf "  \"git_rev\": \"%s\",\n" (json_escape (git_rev ()));
        Printf.sprintf "  \"argv\": [%s],\n" argv;
        Printf.sprintf "  \"engine\": %s,\n" (opt_str m.engine);
        Printf.sprintf "  \"seed\": %s,\n" (opt_int m.seed);
        Printf.sprintf "  \"jobs\": %s,\n" (opt_int m.jobs);
        Printf.sprintf "  \"circuit\": %s,\n" (opt_str m.circuit);
        Printf.sprintf "  \"patterns\": %s,\n" (opt_int m.patterns);
        Printf.sprintf "  \"block_words\": %s,\n" (opt_int m.block_words);
        Printf.sprintf "  \"opt_passes\": %s,\n" (opt_list m.opt_passes);
        Printf.sprintf "  \"opt_rounds\": %s,\n" (opt_int m.opt_rounds);
        Printf.sprintf "  \"objective\": %s,\n" (opt_str m.objective);
        Printf.sprintf "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
        Printf.sprintf "  \"hostname\": \"%s\",\n"
          (json_escape (try Unix.gethostname () with _ -> "unknown"));
        Printf.sprintf "  \"ocaml\": \"%s\",\n" (json_escape Sys.ocaml_version);
        Printf.sprintf "  \"written_at\": %.3f,\n" (Unix.gettimeofday ());
        Printf.sprintf "  \"wall_s\": %s\n" (json_float m.wall_s);
        "}\n" ]

  let write ~dir ~manifest ?convergence () =
    mkdir_p dir;
    sample_gc ();
    write_file (Filename.concat dir "manifest.json") (manifest_json manifest);
    write_file (Filename.concat dir "metrics.json") (metrics_json ());
    write_file (Filename.concat dir "trace.json") (trace_json ());
    match convergence with
    | Some t -> write_file (Filename.concat dir "convergence.json") (Convergence.to_json t)
    | None -> ()

  type run = {
    manifest : Json.t;
    counters : (string * float) list;
    gauges : (string * float) list;
    histograms : (string * (string * float) list) list;
    span_totals : (string * float) list;
    final_n : float option;
  }

  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

  (* Total span wall-clock per name from a trace.json. *)
  let span_totals trace =
    let tbl = Hashtbl.create 32 in
    (match Json.member "traceEvents" trace with
     | Some (Json.Arr evs) ->
       List.iter
         (fun e ->
           match (Json.member "name" e, Json.member "dur" e) with
           | Some (Json.Str name), Some (Json.Num dur) ->
             Hashtbl.replace tbl name ((try Hashtbl.find tbl name with Not_found -> 0.0) +. dur)
           | _ -> ())
         evs
     | _ -> ());
    by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let read dir =
    let load file =
      let path = Filename.concat dir file in
      if not (Sys.file_exists path) then Json.Null
      else
        try Json.parse (read_file path)
        with Failure m | Sys_error m -> failwith (path ^ ": " ^ m)
    in
    match load "metrics.json" with
    | exception Failure _ -> Error (dir ^ ": missing or unreadable metrics.json")
    | Json.Null -> Error (dir ^ ": missing or unreadable metrics.json")
    | metrics -> (
      try
        let span_totals = span_totals (load "trace.json") in
        let convergence = load "convergence.json" in
        let manifest = load "manifest.json" in
        let section k = Option.value ~default:Json.Null (Json.member k metrics) in
        let histograms =
          match section "histograms" with
          | Json.Obj hs -> List.map (fun (name, h) -> (name, Json.num_members h)) hs
          | _ -> []
        in
        (* [n] of the last "final" row *)
        let final_n =
          match Json.member "rows" convergence with
          | Some (Json.Arr rows) ->
            List.fold_left
              (fun n r ->
                match Json.member "stage" r with
                | Some (Json.Str "final") -> Option.bind (Json.member "n" r) Json.to_float
                | _ -> n)
              None rows
          | _ -> None
        in
        Ok
          { manifest;
            counters = Json.num_members (section "counters");
            gauges = Json.num_members (section "gauges");
            histograms; span_totals; final_n }
      with Failure m -> Error m)
end

(* --- obs diff: artifact regression analysis -------------------------------- *)

module Diff = struct
  type thresholds = {
    span_ratio : float;
    quantile_ratio : float;
    counter_ratio : float;
    min_span_us : float;
    min_hist_count : int;
  }

  let default =
    { span_ratio = 1.5;
      quantile_ratio = 1.5;
      counter_ratio = 1.5;
      min_span_us = 1000.0;
      min_hist_count = 1 }

  type severity = Regression | Improvement | Info

  type finding = {
    severity : severity;
    kind : string;  (* "counter" | "gauge" | "span" | "histogram" | "convergence" | "manifest" *)
    name : string;
    a : float;
    b : float;
    detail : string;
  }

  let ratio a b =
    if a = b then 1.0
    else if a <= 0.0 then Float.infinity
    else b /. a

  (* Severity from a B/A ratio against a symmetric threshold band. *)
  let classify thr a b =
    let r = ratio a b in
    if r > thr then Regression else if r < 1.0 /. thr then Improvement else Info

  (* Outer join of two keyed lists by name: [both] judges a name present on
     both sides, a one-sided name is an Info finding carrying [value]. *)
  let join ~kind ~value ~both a_list b_list =
    List.sort_uniq String.compare (List.map fst a_list @ List.map fst b_list)
    |> List.filter_map (fun name ->
           match (List.assoc_opt name a_list, List.assoc_opt name b_list) with
           | Some a, Some b -> both name a b
           | Some a, None ->
             Some { severity = Info; kind; name; a = value a; b = Float.nan; detail = "only in A" }
           | None, Some b ->
             Some { severity = Info; kind; name; a = Float.nan; b = value b; detail = "only in B" }
           | None, None -> None)

  (* Compare two keyed float lists; [gate] decides whether a pair is
     eligible for regression/improvement classification at all. *)
  let compare_keyed ~kind ~thr ~gate ~unit_ =
    join ~kind ~value:Fun.id ~both:(fun name a b ->
        if a = b then None
        else
          let sev = if gate a b then classify thr a b else Info in
          Some
            { severity = sev; kind; name; a; b;
              detail = Printf.sprintf "%.4g -> %.4g %s (x%.3g)" a b unit_ (ratio a b) })

  let hist_quantiles (r : Artifact.run) =
    List.filter_map
      (fun (name, stats) ->
        let f k = List.assoc_opt k stats in
        match (f "count", f "p50", f "p99", f "max") with
        | Some c, Some p50, Some p99, Some _ -> Some (name, (c, p50, p99))
        | _ -> None)
      r.histograms

  let compare ?(thresholds = default) (ra : Artifact.run) (rb : Artifact.run) =
    let t = thresholds in
    let counters =
      compare_keyed ~kind:"counter" ~thr:t.counter_ratio
        ~gate:(fun a b -> Float.max a b >= 10.0)
        ~unit_:"" ra.counters rb.counters
    in
    let gauges =
      (* gauges (heap sizes, GC totals) are environment-dependent: report,
         never gate *)
      compare_keyed ~kind:"gauge" ~thr:Float.infinity ~gate:(fun _ _ -> false) ~unit_:""
        ra.gauges rb.gauges
      |> List.filter (fun f -> Float.abs (ratio f.a f.b -. 1.0) > 0.25)
    in
    let spans =
      compare_keyed ~kind:"span" ~thr:t.span_ratio
        ~gate:(fun a b -> Float.max a b >= t.min_span_us)
        ~unit_:"us" ra.span_totals rb.span_totals
    in
    let hists =
      join ~kind:"histogram" ~value:(fun (_, _, p99) -> p99)
        ~both:(fun name (ca, p50a, p99a) (cb, p50b, p99b) ->
          let eligible =
            ca >= Float.of_int t.min_hist_count && cb >= Float.of_int t.min_hist_count
          in
          let sev_of qa qb =
            if eligible && qa <> qb then classify t.quantile_ratio qa qb else Info
          in
          let sev =
            match (sev_of p50a p50b, sev_of p99a p99b) with
            | Regression, _ | _, Regression -> Regression
            | Improvement, _ | _, Improvement -> Improvement
            | _ -> Info
          in
          if p50a = p50b && p99a = p99b && ca = cb then None
          else
            Some
              { severity = sev;
                kind = "histogram";
                name;
                a = p99a;
                b = p99b;
                detail =
                  Printf.sprintf "p50 %.4g -> %.4g (x%.3g), p99 %.4g -> %.4g (x%.3g), n %g -> %g"
                    p50a p50b (ratio p50a p50b) p99a p99b (ratio p99a p99b) ca cb })
        (hist_quantiles ra) (hist_quantiles rb)
    in
    let convergence =
      match (ra.final_n, rb.final_n) with
      | Some na, Some nb when na <> nb ->
        [ { severity = classify t.quantile_ratio na nb;
            kind = "convergence";
            name = "final_n";
            a = na;
            b = nb;
            detail = Printf.sprintf "final N %.6g -> %.6g (x%.3g)" na nb (ratio na nb) } ]
      | _ -> []
    in
    let manifest =
      let field name (r : Artifact.run) = Option.bind (Json.member name r.manifest) Json.to_string in
      List.filter_map
        (fun key ->
          match (field key ra, field key rb) with
          | Some va, Some vb when va <> vb ->
            Some
              { severity = Info; kind = "manifest"; name = key; a = Float.nan; b = Float.nan;
                detail = Printf.sprintf "%S vs %S" va vb }
          | _ -> None)
        [ "git_rev"; "engine"; "hostname" ]
    in
    let rank f =
      (match f.severity with Regression -> 0 | Improvement -> 1 | Info -> 2), -.ratio f.a f.b
    in
    List.sort
      (fun x y -> compare (rank x) (rank y))
      (counters @ gauges @ spans @ hists @ convergence @ manifest)

  let regressions fs = List.filter (fun f -> f.severity = Regression) fs

  let pp_report ppf fs =
    if fs = [] then Format.fprintf ppf "obs diff: no differences@."
    else begin
      let tag f =
        match f.severity with
        | Regression -> "REGRESSION"
        | Improvement -> "improved"
        | Info -> "info"
      in
      List.iter
        (fun f ->
          Format.fprintf ppf "  %-10s %-11s %-44s %s@." (tag f) f.kind f.name f.detail)
        fs;
      let n_reg = List.length (regressions fs) in
      Format.fprintf ppf "obs diff: %d difference(s), %d regression(s)@." (List.length fs) n_reg
    end
end
