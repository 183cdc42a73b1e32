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
  args : (string * string) list;
}

type mark = {
  m_name : string;
  m_ts_us : float;
  m_tid : int;
  m_fields : (string * string) list;
}

let lock = Mutex.create ()
let events_rev : event list ref = ref []
let marks_rev : mark list ref = ref []

let record ev =
  Mutex.lock lock;
  events_rev := ev :: !events_rev;
  Mutex.unlock lock

let span_begin () = if Atomic.get on then now_us () else Float.neg_infinity

let span_end ?(cat = "span") ?(args = []) name t0 =
  if t0 > Float.neg_infinity then begin
    let dur = Float.max 0.0 (now_us () -. t0) in
    record { name; cat; ts_us = t0; dur_us = dur; tid = (Domain.self () :> int); args }
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

let mark ?(fields = []) name =
  if Atomic.get on then begin
    let m =
      { m_name = name; m_ts_us = now_us (); m_tid = (Domain.self () :> int); m_fields = fields }
    in
    Mutex.lock lock;
    marks_rev := m :: !marks_rev;
    Mutex.unlock lock
  end

let marks () =
  Mutex.lock lock;
  let ms = !marks_rev in
  Mutex.unlock lock;
  List.rev ms

(* --- track names ------------------------------------------------------------

   Per-domain display names for the trace viewer.  Registration-like (not
   gated on the enabled flag, survives [clear]): a worker domain names its
   track once at spawn and every later trace export shows it. *)

let track_names : (int, string) Hashtbl.t = Hashtbl.create 8

let set_track_name name =
  let tid = (Domain.self () :> int) in
  Mutex.lock lock;
  Hashtbl.replace track_names tid name;
  Mutex.unlock lock

let track_names_snapshot () =
  Mutex.lock lock;
  let xs = Hashtbl.fold (fun tid name acc -> (tid, name) :: acc) track_names [] in
  Mutex.unlock lock;
  List.sort compare xs

(* --- sample hooks -----------------------------------------------------------

   Callbacks that refresh derived gauges from live state (pool utilization,
   queue depths) right before a snapshot is taken.  Lets lower layers like
   [Rt_util.Pool] — which depend on this module — feed the sampler, the
   artifact writer and the HTTP responder without a reverse dependency. *)

let sample_hooks : (unit -> unit) list ref = ref []

let add_sample_hook f =
  Mutex.lock lock;
  sample_hooks := f :: !sample_hooks;
  Mutex.unlock lock

let run_sample_hooks () =
  if Atomic.get on then begin
    Mutex.lock lock;
    let hs = !sample_hooks in
    Mutex.unlock lock;
    (* oldest first, so a later registration's writes win on shared gauges *)
    List.iter (fun f -> try f () with _ -> ()) (List.rev hs)
  end

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

let span_end_h ?(cat = "span") ?(args = []) name h t0 =
  if t0 > Float.neg_infinity then begin
    (* One clock read feeds both the event and the histogram, so the two
       views of the span duration are identical. *)
    let dur = Float.max 0.0 (now_us () -. t0) in
    record { name; cat; ts_us = t0; dur_us = dur; tid = (Domain.self () :> int); args };
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
   (sweep ends, artifact writes, SIGUSR1 dumps).  Gated like everything
   else: free when recording is off. *)

let g_minor_words = gauge "gc.minor_words"
let g_major_words = gauge "gc.major_words"
let g_promoted_words = gauge "gc.promoted_words"
let g_heap_words = gauge "gc.heap_words"
let g_minor_collections = gauge "gc.minor_collections"
let g_major_collections = gauge "gc.major_collections"
let g_compactions = gauge "gc.compactions"

let sample_gc () =
  if Atomic.get on then begin
    let s = Gc.quick_stat () in
    gauge_set g_minor_words s.Gc.minor_words;
    gauge_set g_major_words s.Gc.major_words;
    gauge_set g_promoted_words s.Gc.promoted_words;
    gauge_set g_heap_words (Float.of_int s.Gc.heap_words);
    gauge_set g_minor_collections (Float.of_int s.Gc.minor_collections);
    gauge_set g_major_collections (Float.of_int s.Gc.major_collections);
    gauge_set g_compactions (Float.of_int s.Gc.compactions)
  end

let clear () =
  Mutex.lock lock;
  events_rev := [];
  marks_rev := [];
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

  let print (j : t) : string =
    let buf = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num f -> Buffer.add_string buf (json_float f)
      | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (json_escape s);
        Buffer.add_char buf '"'
      | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (json_escape k);
            Buffer.add_string buf "\":";
            go v)
          fields;
        Buffer.add_char buf '}'
    in
    go j;
    Buffer.contents buf
end

let args_json args =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
       args)

let trace_json () =
  let evs = events () in
  let ms = marks () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf s
  in
  List.iter
    (fun (tid, name) ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           tid (json_escape name)))
    (track_names_snapshot ());
  List.iter
    (fun ev ->
      let args = if ev.args = [] then "" else Printf.sprintf ",\"args\":{%s}" (args_json ev.args) in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d%s}"
           (json_escape ev.name) (json_escape ev.cat) ev.ts_us ev.dur_us ev.tid args))
    evs;
  List.iter
    (fun m ->
      let args =
        String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
             m.m_fields)
      in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
           (json_escape m.m_name) m.m_ts_us m.m_tid args))
    ms;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* One self-describing JSON object per line, spans and marks interleaved in
   start-timestamp order — greppable, tail-able, trivially parseable. *)
let events_jsonl () =
  let lines =
    List.map
      (fun ev ->
        let args =
          if ev.args = [] then "" else Printf.sprintf ",\"args\":{%s}" (args_json ev.args)
        in
        ( ev.ts_us,
          Printf.sprintf
            "{\"type\":\"span\",\"name\":\"%s\",\"cat\":\"%s\",\"ts_us\":%.3f,\"dur_us\":%.3f,\"tid\":%d%s}"
            (json_escape ev.name) (json_escape ev.cat) ev.ts_us ev.dur_us ev.tid args ))
      (events ())
    @ List.map
        (fun m ->
          let fields =
            String.concat ","
              (List.map
                 (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
                 m.m_fields)
          in
          ( m.m_ts_us,
            Printf.sprintf
              "{\"type\":\"mark\",\"name\":\"%s\",\"ts_us\":%.3f,\"tid\":%d,\"fields\":{%s}}"
              (json_escape m.m_name) m.m_ts_us m.m_tid fields ))
        (marks ())
  in
  let lines = List.sort (fun (a, _) (b, _) -> Float.compare a b) lines in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (_, l) ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  Buffer.contents buf

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

(* --- OpenMetrics exposition -------------------------------------------------

   Text exposition for scrape-based collection: counters (`_total`), gauges,
   and histograms with cumulative `_bucket{le="..."}` series.  Metric names
   are sanitised to [a-zA-Z0-9_:] and prefixed with `optprob_`. *)

let prom_name name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf "optprob_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

let metrics_prom () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s_total %d\n" n n v))
    (counters_snapshot ());
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (prom_float v)))
    (gauges_snapshot ());
  List.iter
    (fun (name, s) ->
      let n = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
      let acc = ref 0 in
      Array.iteri
        (fun i c ->
          acc := !acc + c;
          (* keep the exposition compact: only emit boundaries that close a
             nonempty prefix, plus the mandatory +Inf bucket *)
          if c > 0 && i < n_buckets - 1 then
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_float (bucket_upper i)) !acc))
        s.buckets;
      Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n s.count);
      Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (prom_float s.sum));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n s.count))
    (histograms_snapshot ());
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* Strict structural lint of an OpenMetrics text exposition: family blocks
   declared by `# TYPE`, counter samples suffixed `_total`, histogram series
   cumulative with a `+Inf` bucket equal to `_count`, names restricted to
   [a-zA-Z0-9_:], label values quote-escaped, one trailing `# EOF`.  Used by
   the parse-back test and available to external checks. *)
let prom_lint s =
  let errs = ref [] in
  let add m = errs := m :: !errs in
  let errf lineno fmt =
    Printf.ksprintf (fun m -> add (Printf.sprintf "line %d: %s" lineno m)) fmt
  in
  let name_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false in
  let name_ok n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all name_char n
  in
  let value_of v =
    match v with
    | "+Inf" -> Some Float.infinity
    | "-Inf" -> Some Float.neg_infinity
    | "NaN" -> Some Float.nan
    | _ -> float_of_string_opt v
  in
  (* sample line: name[{k="v",...}] value — quote-aware label scanner *)
  let parse_sample line =
    let len = String.length line in
    let i = ref 0 in
    while !i < len && name_char line.[!i] do Stdlib.incr i done;
    let name = String.sub line 0 !i in
    let labels = ref [] in
    let ok = ref (name <> "") in
    if !ok && !i < len && line.[!i] = '{' then begin
      Stdlib.incr i;
      let rec pairs () =
        if !i < len && line.[!i] = '}' then Stdlib.incr i
        else begin
          let ks = !i in
          while
            !i < len
            && (match line.[!i] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
          do
            Stdlib.incr i
          done;
          let k = String.sub line ks (!i - ks) in
          if k = "" || !i + 1 >= len || line.[!i] <> '=' || line.[!i + 1] <> '"' then ok := false
          else begin
            i := !i + 2;
            let buf = Buffer.create 8 in
            let closed = ref false in
            while not !closed && !ok && !i < len do
              (match line.[!i] with
               | '"' -> closed := true
               | '\\' ->
                 Stdlib.incr i;
                 if !i >= len then ok := false
                 else (
                   match line.[!i] with
                   | '\\' -> Buffer.add_char buf '\\'
                   | '"' -> Buffer.add_char buf '"'
                   | 'n' -> Buffer.add_char buf '\n'
                   | _ -> ok := false)
               | c -> Buffer.add_char buf c);
              Stdlib.incr i
            done;
            if not !closed then ok := false
            else begin
              labels := (k, Buffer.contents buf) :: !labels;
              if !i < len && line.[!i] = ',' then begin
                Stdlib.incr i;
                pairs ()
              end
              else if !i < len && line.[!i] = '}' then Stdlib.incr i
              else ok := false
            end
          end
        end
      in
      pairs ()
    end;
    if (not !ok) || !i >= len || line.[!i] <> ' ' then None
    else Some (name, List.rev !labels, String.sub line (!i + 1) (len - !i - 1))
  in
  (* family block state *)
  let fam = ref None in
  let seen = Hashtbl.create 16 in
  let hist_prev = ref 0.0
  and hist_inf = ref None
  and hist_count = ref None
  and fam_line = ref 0 in
  let finish_family () =
    match !fam with
    | Some (n, "histogram") -> (
      match (!hist_inf, !hist_count) with
      | None, _ -> errf !fam_line "histogram %s: missing le=\"+Inf\" bucket" n
      | Some _, None -> errf !fam_line "histogram %s: missing %s_count" n n
      | Some inf, Some c ->
        if inf <> c then errf !fam_line "histogram %s: +Inf bucket %g <> count %g" n inf c)
    | _ -> ()
  in
  if s = "" || s.[String.length s - 1] <> '\n' then add "exposition does not end with a newline";
  let lines = String.split_on_char '\n' s in
  let n_lines = List.length lines in
  let eof = ref false in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if line = "" then begin
        if i <> n_lines - 1 then errf lineno "unexpected blank line"
      end
      else if !eof then errf lineno "content after # EOF"
      else if line = "# EOF" then begin
        finish_family ();
        eof := true
      end
      else if line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; mname; mtype ] ->
          finish_family ();
          if not (name_ok mname) then errf lineno "bad metric family name %S" mname;
          if not (List.mem mtype [ "counter"; "gauge"; "histogram"; "summary"; "info"; "unknown" ])
          then errf lineno "bad metric type %S" mtype;
          if Hashtbl.mem seen mname then errf lineno "duplicate family %s" mname;
          Hashtbl.replace seen mname ();
          fam := Some (mname, mtype);
          hist_prev := 0.0;
          hist_inf := None;
          hist_count := None;
          fam_line := lineno
        | "#" :: ("HELP" | "UNIT") :: _ -> ()
        | _ -> errf lineno "unrecognized comment line %S" line
      end
      else begin
        match parse_sample line with
        | None -> errf lineno "malformed sample line %S" line
        | Some (sname, labels, vstr) ->
          if not (name_ok sname) then errf lineno "bad sample name %S" sname;
          (match value_of vstr with
           | None -> errf lineno "unparseable value %S" vstr
           | Some v -> (
             match !fam with
             | None -> errf lineno "sample %s before any # TYPE" sname
             | Some (fname, "counter") ->
               if sname <> fname ^ "_total" && sname <> fname ^ "_created" then
                 errf lineno "counter sample %s must be %s_total" sname fname
               else if not (v >= 0.0) then errf lineno "counter %s has non-finite or negative value" sname
             | Some (fname, "gauge") ->
               if sname <> fname then errf lineno "gauge sample %s outside family %s" sname fname
             | Some (fname, "histogram") ->
               if sname = fname ^ "_bucket" then begin
                 (match List.assoc_opt "le" labels with
                  | None -> errf lineno "histogram bucket without le label"
                  | Some le ->
                    if value_of le = None then errf lineno "unparseable le=%S" le;
                    if le = "+Inf" then hist_inf := Some v);
                 if v < !hist_prev then
                   errf lineno "histogram %s buckets not cumulative (%g after %g)" fname v !hist_prev;
                 hist_prev := v
               end
               else if sname = fname ^ "_sum" then ()
               else if sname = fname ^ "_count" then begin
                 if not (v >= 0.0) then errf lineno "negative histogram count";
                 hist_count := Some v
               end
               else errf lineno "unexpected sample %s in histogram family %s" sname fname
             | Some _ -> ()))
      end)
    lines;
  if not !eof then add "missing '# EOF' terminator";
  List.rev !errs

(* Atomic artifact write: a reader polling the directory mid-run (SIGUSR1
   snapshots, the HTTP responder's fallback, `tail -f` on metrics.prom)
   must never see a torn file, so write a sibling temp file and rename it
   into place — [Sys.rename] replaces atomically on POSIX. *)
let write_file path s =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
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

(* --- timeline sampler --------------------------------------------------------

   A background domain that periodically snapshots every counter and gauge
   (after refreshing the derived ones via the sample hooks and the GC
   gauges) into a bounded ring buffer, flushed on stop to a
   `optprob-timeline/1` JSON document.  The ring keeps the newest
   [capacity] samples and counts what it overwrote, so a runaway run has
   bounded memory and an honest [dropped] figure. *)

module Timeline = struct
  type sample = {
    s_ts_us : float;
    s_counters : (string * int) list;
    s_gauges : (string * float) list;
  }

  type ring = {
    r_cap : int;
    r_data : sample option array;
    mutable r_pushed : int;
    r_lock : Mutex.t;
  }

  let ring_create cap =
    if cap < 1 then invalid_arg "Rt_obs.Timeline.ring_create: capacity must be >= 1";
    { r_cap = cap; r_data = Array.make cap None; r_pushed = 0; r_lock = Mutex.create () }

  let ring_push r s =
    Mutex.lock r.r_lock;
    (* clamp to keep the series strictly monotone even if the wall clock
       steps backwards between samples *)
    let s =
      if r.r_pushed = 0 then s
      else
        match r.r_data.((r.r_pushed - 1) mod r.r_cap) with
        | Some prev when s.s_ts_us <= prev.s_ts_us -> { s with s_ts_us = prev.s_ts_us +. 1e-3 }
        | _ -> s
    in
    r.r_data.(r.r_pushed mod r.r_cap) <- Some s;
    r.r_pushed <- r.r_pushed + 1;
    Mutex.unlock r.r_lock

  let ring_flush r =
    Mutex.lock r.r_lock;
    let n = Stdlib.min r.r_pushed r.r_cap in
    let start = r.r_pushed - n in
    let out = List.init n (fun i -> Option.get r.r_data.((start + i) mod r.r_cap)) in
    let dropped = r.r_pushed - n in
    Mutex.unlock r.r_lock;
    (out, dropped)

  let take_sample () =
    run_sample_hooks ();
    sample_gc ();
    { s_ts_us = now_us (); s_counters = counters_snapshot (); s_gauges = gauges_snapshot () }

  type sampler = {
    ring : ring;
    period_ms : int;
    stop_flag : bool Atomic.t;
    mutable domain : unit Domain.t option;
  }

  let start ?(capacity = 4096) ~period_ms () =
    if period_ms < 1 then invalid_arg "Rt_obs.Timeline.start: period_ms must be >= 1";
    let t =
      { ring = ring_create capacity; period_ms; stop_flag = Atomic.make false; domain = None }
    in
    let d =
      Domain.spawn (fun () ->
          set_track_name "obs-sampler";
          while not (Atomic.get t.stop_flag) do
            ring_push t.ring (take_sample ());
            (* sleep in <= 50 ms steps so stop stays prompt at long periods *)
            let remaining = ref (Float.of_int t.period_ms /. 1000.0) in
            while !remaining > 0.0 && not (Atomic.get t.stop_flag) do
              let dt = Float.min 0.05 !remaining in
              Unix.sleepf dt;
              remaining := !remaining -. dt
            done
          done)
    in
    t.domain <- Some d;
    t

  let stop t =
    Atomic.set t.stop_flag true;
    (match t.domain with
     | Some d ->
       Domain.join d;
       t.domain <- None
     | None -> ());
    (* one final sample so even a run shorter than a period flushes a
       non-empty timeline with end-of-run values *)
    ring_push t.ring (take_sample ());
    ring_flush t.ring

  let to_json ~period_ms ~dropped samples =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n  \"schema\": \"optprob-timeline/1\",\n";
    Buffer.add_string buf (Printf.sprintf "  \"period_ms\": %d,\n" period_ms);
    Buffer.add_string buf (Printf.sprintf "  \"dropped\": %d,\n" dropped);
    Buffer.add_string buf "  \"samples\": [\n";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf ",\n";
        let kv_int (k, v) = Printf.sprintf "\"%s\": %d" (json_escape k) v in
        let kv_flt (k, v) = Printf.sprintf "\"%s\": %s" (json_escape k) (json_float v) in
        Buffer.add_string buf
          (Printf.sprintf "    {\"ts_us\": %.3f, \"counters\": {%s}, \"gauges\": {%s}}" s.s_ts_us
             (String.concat ", " (List.map kv_int s.s_counters))
             (String.concat ", " (List.map kv_flt s.s_gauges))))
      samples;
    Buffer.add_string buf "\n  ]\n}\n";
    Buffer.contents buf

  let write path ~period_ms ~dropped samples =
    write_file path (to_json ~period_ms ~dropped samples)
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
   manifest.json (provenance), events.jsonl (structured log), metrics.json
   (counters + gauges + histograms), trace.json (Perfetto), metrics.prom
   (OpenMetrics) and, when a convergence recorder exists, convergence.json.
   `optprob obs diff` consumes two such directories. *)

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

  let rec mkdir_p dir =
    if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  (* Best effort, no subprocess: $OPTPROB_GIT_REV wins, else follow
     .git/HEAD upward from the cwd. *)
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
            let full = Filename.concat dir (Filename.concat ".git" ref_path) in
            if Sys.file_exists full then String.trim (read_file full) else content
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

  (* The live snapshot (also the SIGUSR1 handler's body): metrics only —
     cheap, and the files a scraper would poll. *)
  let write_live ~dir =
    mkdir_p dir;
    run_sample_hooks ();
    sample_gc ();
    write_file (Filename.concat dir "metrics.json") (metrics_json ());
    write_file (Filename.concat dir "metrics.prom") (metrics_prom ())

  let write ~dir ~manifest ?convergence () =
    mkdir_p dir;
    run_sample_hooks ();
    sample_gc ();
    write_file (Filename.concat dir "manifest.json") (manifest_json manifest);
    write_file (Filename.concat dir "events.jsonl") (events_jsonl ());
    write_file (Filename.concat dir "metrics.json") (metrics_json ());
    write_file (Filename.concat dir "metrics.prom") (metrics_prom ());
    write_file (Filename.concat dir "trace.json") (trace_json ());
    match convergence with
    | Some t -> write_file (Filename.concat dir "convergence.json") (Convergence.to_json t)
    | None -> ()
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
    kind : string;  (* "counter" | "span" | "histogram" | "convergence" | "manifest" *)
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

  let load_json dir file =
    let path = Filename.concat dir file in
    if Sys.file_exists path then Some (Json.parse (read_file path)) else None

  let num_members = function
    | Some (Json.Obj fields) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) fields
    | _ -> []

  let obj_members = function
    | Some (Json.Obj fields) -> fields
    | _ -> []

  (* Total span wall-clock per name from a trace.json. *)
  let span_totals = function
    | None -> []
    | Some j ->
      let tbl = Hashtbl.create 32 in
      (match Json.member "traceEvents" j with
       | Some (Json.Arr evs) ->
         List.iter
           (fun e ->
             match (Json.member "name" e, Json.member "dur" e) with
             | Some (Json.Str name), Some (Json.Num dur) ->
               Hashtbl.replace tbl name ((try Hashtbl.find tbl name with Not_found -> 0.0) +. dur)
             | _ -> ())
           evs
       | _ -> ());
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* Compare two keyed float lists; [gate] decides whether a pair is
     eligible for regression/improvement classification at all. *)
  let compare_keyed ?(invert = false) ~kind ~thr ~gate ~unit_ a_list b_list =
    let names =
      List.sort_uniq String.compare (List.map fst a_list @ List.map fst b_list)
    in
    List.filter_map
      (fun name ->
        match (List.assoc_opt name a_list, List.assoc_opt name b_list) with
        | Some a, Some b ->
          if a = b then None
          else begin
            (* [invert] flips the regression direction for
               higher-is-better series (e.g. pool utilization). *)
            let sev =
              if gate a b then (if invert then classify thr b a else classify thr a b)
              else Info
            in
            Some
              { severity = sev;
                kind;
                name;
                a;
                b;
                detail = Printf.sprintf "%.4g -> %.4g %s (x%.3g)" a b unit_ (ratio a b) }
          end
        | Some a, None ->
          Some { severity = Info; kind; name; a; b = Float.nan; detail = "only in A" }
        | None, Some b ->
          Some { severity = Info; kind; name; a = Float.nan; b; detail = "only in B" }
        | None, None -> None)
      names

  (* Per-gauge series statistics (mean/peak/p90) from a timeline.json. *)
  let timeline_series j =
    match Json.member "samples" j with
    | Some (Json.Arr samples) ->
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun s ->
          match Json.member "gauges" s with
          | Some (Json.Obj gs) ->
            List.iter
              (fun (k, v) ->
                match Json.to_float v with
                | Some f ->
                  let vs = try Hashtbl.find tbl k with Not_found -> [] in
                  Hashtbl.replace tbl k (f :: vs)
                | None -> ())
              gs
          | _ -> ())
        samples;
      Hashtbl.fold
        (fun k vs acc ->
          let n = List.length vs in
          if n = 0 then acc
          else begin
            let sorted = List.sort Float.compare vs in
            let peak = List.nth sorted (n - 1) in
            let p90 = List.nth sorted (Stdlib.min (n - 1) ((n * 9 + 9) / 10 - 1)) in
            let mean = List.fold_left ( +. ) 0.0 vs /. Float.of_int n in
            (k ^ ".mean", mean) :: (k ^ ".peak", peak) :: (k ^ ".p90", p90) :: acc
          end)
        tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    | _ -> []

  let hist_quantiles fields =
    List.filter_map
      (fun (name, h) ->
        match h with
        | Json.Obj _ ->
          let f k = Option.bind (Json.member k h) Json.to_float in
          (match (f "count", f "p50", f "p99", f "max") with
           | Some c, Some p50, Some p99, Some mx -> Some (name, (c, p50, p99, mx))
           | _ -> None)
        | _ -> None)
      fields

  let compare_dirs ?(thresholds = default) dir_a dir_b =
    let ma = load_json dir_a "metrics.json" and mb = load_json dir_b "metrics.json" in
    if ma = None then failwith (dir_a ^ ": missing or unreadable metrics.json");
    if mb = None then failwith (dir_b ^ ": missing or unreadable metrics.json");
    let t = thresholds in
    let member name j = Option.bind j (Json.member name) in
    let counters =
      compare_keyed ~kind:"counter" ~thr:t.counter_ratio
        ~gate:(fun a b -> Float.max a b >= 10.0)
        ~unit_:""
        (num_members (member "counters" ma))
        (num_members (member "counters" mb))
    in
    let gauges =
      (* gauges (heap sizes, GC totals) are environment-dependent: report,
         never gate *)
      compare_keyed ~kind:"gauge" ~thr:Float.infinity ~gate:(fun _ _ -> false) ~unit_:""
        (num_members (member "gauges" ma))
        (num_members (member "gauges" mb))
      |> List.filter (fun f -> Float.abs (ratio f.a f.b -. 1.0) > 0.25)
    in
    let spans =
      compare_keyed ~kind:"span" ~thr:t.span_ratio
        ~gate:(fun a b -> Float.max a b >= t.min_span_us)
        ~unit_:"us"
        (span_totals (load_json dir_a "trace.json"))
        (span_totals (load_json dir_b "trace.json"))
    in
    let ha = hist_quantiles (obj_members (member "histograms" ma)) in
    let hb = hist_quantiles (obj_members (member "histograms" mb)) in
    let hists =
      let names = List.sort_uniq String.compare (List.map fst ha @ List.map fst hb) in
      List.filter_map
        (fun name ->
          match (List.assoc_opt name ha, List.assoc_opt name hb) with
          | Some (ca, p50a, p99a, _), Some (cb, p50b, p99b, _) ->
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
                      p50a p50b (ratio p50a p50b) p99a p99b (ratio p99a p99b) ca cb }
          | Some (_, _, p99a, _), None ->
            Some { severity = Info; kind = "histogram"; name; a = p99a; b = Float.nan;
                   detail = "only in A" }
          | None, Some (_, _, p99b, _) ->
            Some { severity = Info; kind = "histogram"; name; a = Float.nan; b = p99b;
                   detail = "only in B" }
          | None, None -> None)
        names
    in
    let timelines =
      (* timeline gauge series: scheduler-derived series (pool/ppsfp
         prefixes) gate at the quantile threshold; GC/heap series are
         environment-dependent and report-only, like plain gauges *)
      match (load_json dir_a "timeline.json", load_json dir_b "timeline.json") with
      | Some ja, Some jb ->
        let sa = timeline_series ja and sb = timeline_series jb in
        let prefixed p (k, _) =
          String.length k >= String.length p && String.sub k 0 (String.length p) = p
        in
        let is_sched x = prefixed "pool." x || prefixed "ppsfp." x in
        (* utilization is higher-is-better: a drop between runs is the
           regression direction, unlike queue depths and latencies *)
        let is_util = prefixed "pool.utilization" in
        let sched l = List.filter (fun x -> is_sched x && not (is_util x)) l
        and util l = List.filter is_util l
        and rest l = List.filter (fun x -> not (is_sched x)) l in
        let gate a b = Float.max (Float.abs a) (Float.abs b) >= 0.01 in
        compare_keyed ~kind:"timeline" ~thr:t.quantile_ratio ~gate ~unit_:""
          (sched sa) (sched sb)
        @ compare_keyed ~invert:true ~kind:"timeline" ~thr:t.quantile_ratio ~gate ~unit_:""
            (util sa) (util sb)
        @ (compare_keyed ~kind:"timeline" ~thr:Float.infinity ~gate:(fun _ _ -> false) ~unit_:""
             (rest sa) (rest sb)
          |> List.filter (fun f -> Float.abs (ratio f.a f.b -. 1.0) > 0.25))
      | _ -> []
    in
    let convergence =
      let final j =
        match member "rows" j with
        | Some (Json.Arr rows) ->
          List.fold_left
            (fun acc r ->
              match (Json.member "stage" r, Json.member "n" r) with
              | Some (Json.Str "final"), Some (Json.Num n) -> Some n
              | _ -> acc)
            None rows
        | _ -> None
      in
      let ca = load_json dir_a "convergence.json" and cb = load_json dir_b "convergence.json" in
      match (final ca, final cb) with
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
      let field name j = Option.bind (member name j) Json.to_string in
      let a = load_json dir_a "manifest.json" and b = load_json dir_b "manifest.json" in
      List.filter_map
        (fun key ->
          match (field key a, field key b) with
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
      (counters @ gauges @ spans @ hists @ timelines @ convergence @ manifest)

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
