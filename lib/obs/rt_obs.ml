(* Global observability sink.  The enabled flag is the only thing the
   disabled path ever touches: one atomic load, one branch, no allocation —
   the overhead budget that lets the library's hot loops stay instrumented
   permanently.  Recording itself takes a mutex (spans are emitted at
   region/phase granularity, so contention is negligible next to the work
   being timed); counters are plain atomics.  Spans are the only timing
   channel: latency quantiles are computed exactly from their durations
   when an artifact is read back. *)

let on = Atomic.make false
let set_enabled b = Atomic.set on b

let now_us () = Unix.gettimeofday () *. 1e6

(* --- spans ---------------------------------------------------------------- *)

type event = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  seq : int;
}

let lock = Mutex.create ()
let events_rev : event list ref = ref []

let record ev =
  Mutex.lock lock;
  events_rev := ev :: !events_rev;
  Mutex.unlock lock

(* Spans are numbered when they begin, from one process-wide counter, so
   a domain's numbers are its begin order.  A span is recorded when it
   ends, so a domain's recording order is its end order; the two orders
   fix the nesting exactly, where two spans that share a microsecond
   boundary leave timestamps ambiguous.  [with_span] keeps its number on
   its own stack frame.  The explicit [span_begin] / [span_end] pair
   passes only the start time, so each domain keeps the explicit spans
   it has begun and not yet ended as a stack of (start, number);
   [span_end] takes the topmost entry with its start, dropping any entry
   above it (a [span_begin] whose [span_end] an exception skipped).  A
   [span_end] with no entry (back-dated) is numbered when it ends. *)
let begun = Atomic.make 0

type open_spans = {
  mutable depth : int;
  mutable starts : float array;
  mutable numbers : int array;
}

let open_key =
  Domain.DLS.new_key (fun () ->
      { depth = 0; starts = Array.make 16 0.0; numbers = Array.make 16 0 })

let finish cat name t0 seq =
  let dur = Float.max 0.0 (now_us () -. t0) in
  record { name; cat; ts_us = t0; dur_us = dur; tid = (Domain.self () :> int); seq }

let span_begin () =
  if Atomic.get on then begin
    let seq = Atomic.fetch_and_add begun 1 in
    let t0 = now_us () in
    let o = Domain.DLS.get open_key in
    if o.depth = Array.length o.starts then begin
      let grow a fill = Array.append a (Array.make (Array.length a) fill) in
      o.starts <- grow o.starts 0.0;
      o.numbers <- grow o.numbers 0
    end;
    o.starts.(o.depth) <- t0;
    o.numbers.(o.depth) <- seq;
    o.depth <- o.depth + 1;
    t0
  end
  else Float.neg_infinity

let span_end ?(cat = "span") name t0 =
  if t0 > Float.neg_infinity then begin
    let o = Domain.DLS.get open_key in
    let k = ref (o.depth - 1) in
    while !k >= 0 && o.starts.(!k) <> t0 do
      decr k
    done;
    let seq =
      if !k >= 0 then begin
        o.depth <- !k;
        o.numbers.(!k)
      end
      else Atomic.fetch_and_add begun 1
    in
    finish cat name t0 seq
  end

let with_span ?(cat = "span") name f =
  if not (Atomic.get on) then f ()
  else begin
    let seq = Atomic.fetch_and_add begun 1 in
    let t0 = now_us () in
    match f () with
    | v ->
      finish cat name t0 seq;
      v
    | exception e ->
      finish cat name t0 seq;
      raise e
  end

let events () =
  Mutex.lock lock;
  let evs = !events_rev in
  Mutex.unlock lock;
  List.rev evs

(* --- counters --------------------------------------------------------------- *)

type counter = int Atomic.t

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  Mutex.lock lock;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock lock;
  c

let incr c = if Atomic.get on then ignore (Atomic.fetch_and_add c 1)
let add c k = if Atomic.get on then ignore (Atomic.fetch_and_add c k)
let value c = Atomic.get c

let counters_snapshot () =
  Mutex.lock lock;
  let xs = Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) counters [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) xs

(* Exact nearest-rank percentile of an ascending array: the smallest
   sample with at least [pct]% of the samples at or below it ([pct] in
   [0, 100], integer so the rank needs no float rounding); [nan] when
   empty. *)
let percentile sorted pct =
  let n = Array.length sorted in
  if n = 0 then Float.nan else sorted.(Int.max 0 (((pct * n) + 99) / 100 - 1))

let clear () =
  Mutex.lock lock;
  events_rev := [];
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
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

  (* The numeric members of an object, in document order; [] for anything
     else. *)
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
  Buffer.add_string buf "{\n  \"schema\": \"optprob-metrics/4\",\n  \"counters\": {\n";
  obj (fun v -> Buffer.add_string buf (string_of_int v)) (counters_snapshot ());
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

(* Rebuild span nesting per domain from the begin numbers and the
   recording (end) order: walk the spans in begin order with a stack of
   open ancestors, popping every ancestor that ended before the span did;
   the span is a child of what remains on top.  Spans on one domain nest
   properly, so an ancestor that ended first had ended before the span
   began.  No timestamp is read. *)
type node = { ev : event; mutable children : node list }

let forest evs =
  let by_tid = Hashtbl.create 8 in
  List.iteri
    (fun ended e ->
      let cur = try Hashtbl.find by_tid e.tid with Not_found -> [] in
      Hashtbl.replace by_tid e.tid ((ended, e) :: cur))
    evs;
  let tids = List.sort compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid []) in
  List.concat_map
    (fun tid ->
      let es =
        List.sort (fun (_, a) (_, b) -> Int.compare a.seq b.seq) (Hashtbl.find by_tid tid)
      in
      let roots = ref [] in
      let stack = ref [] in
      List.iter
        (fun (ended, e) ->
          let n = { ev = e; children = [] } in
          while (match !stack with (top_ended, _) :: _ -> top_ended < ended | [] -> false) do
            stack := List.tl !stack
          done;
          (match !stack with
           | (_, top) :: _ -> top.children <- n :: top.children
           | [] -> roots := n :: !roots);
          stack := (ended, n) :: !stack)
        es;
      List.rev !roots)
    tids

let pp_span_tree ppf evs =
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
  print "" (forest evs)

let pp_summary ppf =
  let evs = events () in
  if evs <> [] then begin
    Format.fprintf ppf "spans (aggregated by nesting):@.";
    pp_span_tree ppf evs
  end;
  let cs = List.filter (fun (_, v) -> v <> 0) (counters_snapshot ()) in
  if cs <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-44s %12d@." name v) cs
  end

(* --- convergence recorder --------------------------------------------------- *)

module Convergence = struct
  type row = {
    stage : string;
    sweep : int;
    j : float;
    n : float;
    y : float array;
    pf : (string * float) list option;
    objective : string;
  }

  type t = { mutable rows_rev : row list }

  let create () = { rows_rev = [] }

  (* The exact distribution summary of one row's samples, in JSON order. *)
  let summary samples =
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let n = Array.length s in
    (("count", Float.of_int n) :: ("min", percentile s 0)
     :: List.map (fun p -> (Printf.sprintf "p%d" p, percentile s p)) [ 1; 10; 50; 90; 99 ])
    @ [ ("max", percentile s 100) ]

  let record t ?pf ?(objective = "single") ~stage ~sweep ~j ~n ~y () =
    let pf = Option.map summary pf in
    t.rows_rev <- { stage; sweep; j; n; y = Array.copy y; pf; objective } :: t.rows_rev

  let rows t = List.rev t.rows_rev

  let to_json t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"schema\": \"optprob-convergence/3\",\n  \"rows\": [\n";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"stage\": \"%s\", \"objective\": \"%s\", \"sweep\": %d, \"j_n\": %.17g, \"n\": %s, \"y\": [%s]"
             (json_escape r.stage) (json_escape r.objective) r.sweep r.j (json_float r.n)
             (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.17g") r.y))));
        Option.iter
          (fun kvs ->
            Buffer.add_string buf
              (Printf.sprintf ", \"pf\": {%s}"
                 (String.concat ", "
                    (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_float v)) kvs))))
          r.pf;
        Buffer.add_string buf "}")
      (rows t);
    Buffer.add_string buf "\n  ]\n}\n";
    Buffer.contents buf
end

(* --- run artifacts ----------------------------------------------------------

   One `--obs-dir DIR` run writes a self-describing artifact directory:
   manifest.json (provenance), metrics.json (counters),
   trace.json (Perfetto: spans) and, when a convergence recorder exists,
   convergence.json.  [read] parses a directory back into a [run], the
   one form `obs diff` consumes; its per-span latency quantiles come
   from the trace's events. *)

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
    write_file (Filename.concat dir "manifest.json") (manifest_json manifest);
    write_file (Filename.concat dir "metrics.json") (metrics_json ());
    write_file (Filename.concat dir "trace.json") (trace_json ());
    match convergence with
    | Some t -> write_file (Filename.concat dir "convergence.json") (Convergence.to_json t)
    | None -> ()

  type span_stat = { count : int; total_us : float; p50_us : float; p99_us : float }

  type run = {
    manifest : Json.t;
    counters : (string * float) list;
    spans : ((string * string) * span_stat) list;
    final_n : float option;
  }

  (* Per (span name, category) of a trace.json: event count, total
     duration and exact p50/p99, sorted by name then category. *)
  let span_stats trace =
    let tbl = Hashtbl.create 32 in
    (match Json.member "traceEvents" trace with
     | Some (Json.Arr evs) ->
       List.iter
         (fun e ->
           match (Json.member "name" e, Json.member "dur" e) with
           | Some (Json.Str name), Some (Json.Num dur) ->
             let cat = match Json.member "cat" e with Some (Json.Str c) -> c | _ -> "" in
             let key = (name, cat) in
             Hashtbl.replace tbl key (dur :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
           | _ -> ())
         evs
     | _ -> ());
    let stat durs =
      let d = Array.of_list durs in
      Array.sort Float.compare d;
      { count = Array.length d;
        total_us = Array.fold_left ( +. ) 0.0 d;
        p50_us = percentile d 50;
        p99_us = percentile d 99 }
    in
    Hashtbl.fold (fun key durs acc -> (key, stat durs) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

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
        let spans = span_stats (load "trace.json") in
        let convergence = load "convergence.json" in
        let manifest = load "manifest.json" in
        let section k = Option.value ~default:Json.Null (Json.member k metrics) in
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
            spans; final_n }
      with Failure m -> Error m)
end

(* --- obs diff: artifact regression analysis -------------------------------- *)

module Diff = struct
  type thresholds = {
    span_ratio : float;
    quantile_ratio : float;
    counter_ratio : float;
    min_span_us : float;
    min_span_count : int;
  }

  (* Below 100 events a nearest-rank p99 is the maximum, so one preempted
     call would decide the quantile finding on its own. *)
  let default =
    { span_ratio = 1.5;
      quantile_ratio = 1.5;
      counter_ratio = 1.5;
      min_span_us = 1000.0;
      min_span_count = 100 }

  type severity = Regression | Improvement | Info

  type finding = {
    severity : severity;
    kind : string;  (* "counter" | "span" | "quantile" | "convergence" | "manifest" *)
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

  let compare ?(thresholds = default) (ra : Artifact.run) (rb : Artifact.run) =
    let t = thresholds in
    let counters =
      compare_keyed ~kind:"counter" ~thr:t.counter_ratio
        ~gate:(fun a b -> Float.max a b >= 10.0)
        ~unit_:"" ra.counters rb.counters
    in
    (* span totals per name, summed over categories (the stats are sorted
       by name, so a name's categories are adjacent) *)
    let totals =
      List.fold_left
        (fun acc ((name, _), (st : Artifact.span_stat)) ->
          match acc with
          | (n, t) :: rest when n = name -> (n, t +. st.total_us) :: rest
          | _ -> (name, st.total_us) :: acc)
        []
    in
    let spans =
      compare_keyed ~kind:"span" ~thr:t.span_ratio
        ~gate:(fun a b -> Float.max a b >= t.min_span_us)
        ~unit_:"us" (totals ra.spans) (totals rb.spans)
    in
    (* The exact p50/p99 of one span name in one category (the oracle's
       spans are categorised by engine), eligible under the same noise
       floor as its total and from [min_span_count] events on each side.
       Only a shift past [quantile_ratio] is a finding: the span finding
       above already reports the name's smaller moves. *)
    let quantiles =
      List.filter_map
        (fun (((name, cat) as key), (qa : Artifact.span_stat)) ->
          match List.assoc_opt key rb.spans with
          | Some qb
            when Int.min qa.count qb.count >= t.min_span_count
                 && Float.max qa.total_us qb.total_us >= t.min_span_us -> (
            let sev x y = classify t.quantile_ratio x y in
            match (sev qa.p50_us qb.p50_us, sev qa.p99_us qb.p99_us) with
            | Info, Info -> None
            | s50, s99 ->
              let regressed = s50 = Regression || s99 = Regression in
              Some
                { severity = (if regressed then Regression else Improvement);
                  kind = "quantile";
                  name;
                  a = qa.p99_us;
                  b = qb.p99_us;
                  detail =
                    Printf.sprintf
                      "[%s] p50 %.4g -> %.4g us (x%.3g), p99 %.4g -> %.4g us (x%.3g), n %d -> %d"
                      cat qa.p50_us qb.p50_us (ratio qa.p50_us qb.p50_us) qa.p99_us qb.p99_us
                      (ratio qa.p99_us qb.p99_us) qa.count qb.count })
          | _ -> None)
        ra.spans
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
      (counters @ spans @ quantiles @ convergence @ manifest)

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
