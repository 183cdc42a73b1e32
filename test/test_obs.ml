(* Tests for Rt_obs: counter arithmetic, span recording and nesting,
   trace/metrics JSON validity (parsed back by a small JSON reader), the
   convergence recorder against Optimize's own report, domain-safety of
   counters under real parallelism, and the guarantee that telemetry never
   changes optimisation results. *)

module Obs = Rt_obs
module Parallel = Rt_util.Parallel
module Pool = Rt_util.Pool
module Optimize = Rt_optprob.Optimize
module Detect = Rt_testability.Detect
module Oracle = Rt_testability.Oracle
module Generators = Rt_circuit.Generators

let check = Alcotest.check

(* Scratch directories live under the system temp dir (never the repo
   root, where leftovers would show up as stray untracked files). *)
let scratch_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "optprob-obs-%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    (* A stale dir from a recycled pid would leak old artifacts into
       directory-level comparisons. *)
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end;
    dir

(* Every test starts from a clean, disabled sink; the suite is sequential
   so the global state is not contended between tests. *)
let with_obs f () =
  Obs.set_enabled true;
  Obs.clear ();
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.clear ())
    f

(* --- a minimal JSON reader (no JSON library in the test deps) -------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then s.[!pos] else '\x00' in
  let advance () = incr pos in
  let fail msg = Alcotest.failf "JSON parse error at %d: %s" !pos msg in
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
           let hex = String.sub s (!pos + 1) 4 in
           let code = int_of_string ("0x" ^ hex) in
           (* control characters only, in our emitters *)
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
    Num (float_of_string (String.sub s start (!pos - start)))
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
        List []
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
            List (List.rev (v :: acc))
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
  | Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> Alcotest.failf "missing JSON member %S" name)
  | _ -> Alcotest.failf "not a JSON object (looking up %S)" name

(* --- counters -------------------------------------------------------------- *)

let test_counter_arithmetic =
  with_obs @@ fun () ->
  let c = Obs.counter "test.alpha" in
  check Alcotest.int "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  check Alcotest.int "2 incr + add 40" 42 (Obs.value c);
  check Alcotest.bool "same name, same handle" true (Obs.counter "test.alpha" == c);
  let snapshot = Obs.counters_snapshot () in
  check Alcotest.int "snapshot sees it" 42 (List.assoc "test.alpha" snapshot);
  Obs.clear ();
  check Alcotest.int "clear zeroes, keeps registration" 0 (Obs.value c);
  let g = Obs.gauge "test.level" in
  Obs.gauge_set g 2.5;
  check (Alcotest.float 0.0) "gauge" 2.5 (Obs.gauge_value g);
  check (Alcotest.float 0.0) "gauge snapshot" 2.5
    (List.assoc "test.level" (Obs.gauges_snapshot ()))

let test_counter_disabled_drops () =
  Obs.set_enabled false;
  Obs.clear ();
  let c = Obs.counter "test.disabled" in
  Obs.incr c;
  Obs.add c 100;
  check Alcotest.int "increments dropped while disabled" 0 (Obs.value c)

(* Run [f] over [0, n) on a private pool with exactly [jobs] participants.
   Pool.run honours [participants] (the hardware clamp lives in Parallel's
   region policy), so this exercises cross-domain atomics even on a
   single-core host. *)
let on_domains ~jobs ~n f =
  let p = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () ->
      Pool.run p ~participants:jobs ~n (fun _worker lo hi -> f ~lo ~hi))

(* Increments racing from real domains must all land. *)
let test_counter_concurrent =
  with_obs @@ fun () ->
  let c = Obs.counter "test.race" in
  on_domains ~jobs:4 ~n:4000 (fun ~lo ~hi ->
      for _ = lo to hi - 1 do
        Obs.incr c
      done);
  check Alcotest.int "no lost increments across domains" 4000 (Obs.value c)

(* --- spans ----------------------------------------------------------------- *)

let test_span_nesting =
  with_obs @@ fun () ->
  let r =
    Obs.with_span ~cat:"t" "outer" (fun () ->
        Obs.with_span ~cat:"t" "inner" (fun () -> 7 * 6))
  in
  check Alcotest.int "thunk result" 42 r;
  match Obs.events () with
  | [ inner; outer ] ->
    (* inner ends (and so records) first *)
    check Alcotest.string "inner name" "inner" inner.Obs.name;
    check Alcotest.string "outer name" "outer" outer.Obs.name;
    check Alcotest.bool "inner starts after outer" true (inner.Obs.ts_us >= outer.Obs.ts_us);
    check Alcotest.bool "inner contained" true
      (inner.Obs.ts_us +. inner.Obs.dur_us <= outer.Obs.ts_us +. outer.Obs.dur_us +. 1.0);
    check Alcotest.int "same domain" outer.Obs.tid inner.Obs.tid
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_disabled () =
  Obs.set_enabled false;
  Obs.clear ();
  check (Alcotest.float 0.0) "span_begin sentinel" Float.neg_infinity (Obs.span_begin ());
  Obs.span_end "ghost" (Obs.span_begin ());
  ignore (Obs.with_span "ghost2" (fun () -> ()));
  check Alcotest.int "nothing recorded" 0 (List.length (Obs.events ()))

let test_span_records_on_raise =
  with_obs @@ fun () ->
  (try Obs.with_span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  check Alcotest.int "span recorded despite raise" 1 (List.length (Obs.events ()))

(* --- trace / metrics JSON -------------------------------------------------- *)

let test_trace_json_valid =
  with_obs @@ fun () ->
  (* Name with every character class our escaper must handle. *)
  let evil = "qu\"ote\\back\nnew\tline" in
  Obs.with_span ~cat:"phase" evil (fun () -> Obs.with_span ~cat:"phase" "child" ignore);
  let j = parse_json (Obs.trace_json ()) in
  (match member "displayTimeUnit" j with
   | Str "ms" -> ()
   | _ -> Alcotest.fail "displayTimeUnit");
  match member "traceEvents" j with
  | List evs ->
    (* Track-name metadata ("ph":"M") survives [clear]: pool domains named
       by earlier tests in this process still list theirs. *)
    let evs = List.filter (fun e -> member "ph" e <> Str "M") evs in
    check Alcotest.int "two events" 2 (List.length evs);
    let names =
      List.map (fun e -> match member "name" e with Str s -> s | _ -> Alcotest.fail "name") evs
    in
    check Alcotest.bool "evil name round-trips" true (List.mem evil names);
    List.iter
      (fun e ->
        (match member "ph" e with
         | Str "X" -> ()
         | _ -> Alcotest.fail "ph must be X (complete event)");
        (match member "ts" e with
         | Num ts -> check Alcotest.bool "ts positive" true (ts > 0.0)
         | _ -> Alcotest.fail "ts");
        (match member "dur" e with
         | Num d -> check Alcotest.bool "dur non-negative" true (d >= 0.0)
         | _ -> Alcotest.fail "dur");
        match (member "pid" e, member "tid" e) with
        | Num _, Num _ -> ()
        | _ -> Alcotest.fail "pid/tid")
      evs
  | _ -> Alcotest.fail "traceEvents not a list"

let test_metrics_json_valid =
  with_obs @@ fun () ->
  Obs.add (Obs.counter "test.metrics\"quoted") 3;
  Obs.gauge_set (Obs.gauge "test.g") 1.5;
  Obs.observe (Obs.histogram "test.h") 25.0;
  let j = parse_json (Obs.metrics_json ()) in
  (match member "schema" j with
   | Str "optprob-metrics/2" -> ()
   | _ -> Alcotest.fail "schema");
  (match member "test.metrics\"quoted" (member "counters" j) with
   | Num 3.0 -> ()
   | _ -> Alcotest.fail "counter value");
  (match member "test.g" (member "gauges" j) with
   | Num 1.5 -> ()
   | _ -> Alcotest.fail "gauge value");
  let h = member "test.h" (member "histograms" j) in
  (match member "count" h with
   | Num 1.0 -> ()
   | _ -> Alcotest.fail "histogram count");
  List.iter
    (fun q ->
      match member q h with
      | Num v -> check Alcotest.bool (q ^ " bounds the sample") true (v >= 25.0)
      | _ -> Alcotest.fail q)
    [ "p50"; "p90"; "p99"; "max" ]

(* --- histograms ------------------------------------------------------------- *)

(* Observations racing from real domains must all land (count, buckets,
   sum, min, max are all updated without a lock). *)
let hist_concurrent_qcheck =
  QCheck.Test.make ~name:"histogram: concurrent multi-domain observe loses nothing" ~count:5
    QCheck.(pair (int_range 2 4) (int_range 500 3000))
    (fun (jobs, n) ->
      Obs.set_enabled true;
      Obs.clear ();
      let h = Obs.histogram "test.hist.race" in
      on_domains ~jobs ~n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            Obs.observe h (0.5 +. Float.of_int (i mod 64))
          done);
      let s = Obs.histogram_snapshot h in
      Obs.set_enabled false;
      Obs.clear ();
      s.Obs.count = n
      && Array.fold_left ( + ) 0 s.Obs.buckets = n
      && s.Obs.min = 0.5
      && s.Obs.max = 0.5 +. Float.of_int (min 63 (n - 1)))

let hsnap_eq a b =
  a.Obs.count = b.Obs.count
  && a.Obs.buckets = b.Obs.buckets
  && a.Obs.min = b.Obs.min
  && a.Obs.max = b.Obs.max
  && Float.abs (a.Obs.sum -. b.Obs.sum) <= 1e-9 *. Float.max 1.0 (Float.abs a.Obs.sum)

let samples_gen = QCheck.(list_of_size Gen.(int_range 0 200) (float_range 1e-6 1e6))

let hist_merge_qcheck =
  QCheck.Test.make ~name:"histogram merge: associative and commutative" ~count:50
    QCheck.(triple samples_gen samples_gen samples_gen)
    (fun (xs, ys, zs) ->
      let s l = Obs.hsnap_of_samples (Array.of_list l) in
      let a = s xs and b = s ys and c = s zs in
      hsnap_eq (Obs.hsnap_merge a b) (Obs.hsnap_merge b a)
      && hsnap_eq
           (Obs.hsnap_merge (Obs.hsnap_merge a b) c)
           (Obs.hsnap_merge a (Obs.hsnap_merge b c))
      && hsnap_eq (Obs.hsnap_merge a Obs.hsnap_empty) a
      && hsnap_eq
           (Obs.hsnap_merge a b)
           (s (xs @ ys)))

(* The reported quantile is an upper bound of the true sample quantile and
   overshoots by at most one bucket ratio (and never beyond the exact max). *)
let hist_quantile_qcheck =
  QCheck.Test.make ~name:"histogram quantiles bound true sample quantiles" ~count:100
    QCheck.(
      pair (list_of_size Gen.(int_range 1 200) (float_range 1e-6 1e6)) (float_range 0.01 1.0))
    (fun (xs, q) ->
      let arr = Array.of_list xs in
      let s = Obs.hsnap_of_samples arr in
      let sorted = Array.copy arr in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let rank = max 1 (min n (int_of_float (Float.ceil (q *. Float.of_int n)))) in
      let true_q = sorted.(rank - 1) in
      let rep = Obs.hsnap_quantile s q in
      rep >= true_q && rep <= true_q *. Obs.bucket_ratio *. (1.0 +. 1e-12))

let test_with_span_h =
  with_obs @@ fun () ->
  let h = Obs.histogram "test.span_h" in
  let r = Obs.with_span_h ~cat:"t" "timed" h (fun () -> 21 * 2) in
  check Alcotest.int "thunk result" 42 r;
  check Alcotest.int "span recorded" 1 (List.length (Obs.events ()));
  let s = Obs.histogram_snapshot h in
  check Alcotest.int "duration observed" 1 s.Obs.count;
  let ev = List.hd (Obs.events ()) in
  check Alcotest.bool "observed value is the span duration (same clock reads)" true
    (s.Obs.max = ev.Obs.dur_us)

(* --- run artifacts ---------------------------------------------------------- *)

let test_manifest =
  Obs.Artifact.make_manifest ~engine:"cop" ~seed:7 ~jobs:2 ~circuit:"s1" ~patterns:64
    ~block_words:8 ~opt_passes:[ "fold"; "prune" ] ~opt_rounds:2 ~objective:"ndetect:2"
    ~argv:[| "optprob"; "optimize"; "s1" |]
    ~wall_s:0.25 ()

let jmember name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON member %S" name

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_artifact_roundtrip =
  with_obs @@ fun () ->
  let dir = scratch_dir "artifact" in
  Obs.with_span ~cat:"phase" "work" (fun () -> Obs.mark "checkpoint" ~fields:[ ("k", "v") ]);
  Obs.incr (Obs.counter "test.artifact.queries");
  Obs.observe (Obs.histogram "test.artifact.lat_us") 42.0;
  Obs.Artifact.write ~dir ~manifest:test_manifest ();
  (* manifest.json *)
  let m = Obs.Json.parse (read_file (Filename.concat dir "manifest.json")) in
  (match jmember "schema" m with
   | Obs.Json.Str "optprob-manifest/2" -> ()
   | _ -> Alcotest.fail "manifest schema");
  (match jmember "argv" m with
   | Obs.Json.Arr l -> check Alcotest.int "argv arity" 3 (List.length l)
   | _ -> Alcotest.fail "argv");
  (match jmember "engine" m with
   | Obs.Json.Str "cop" -> ()
   | _ -> Alcotest.fail "engine");
  (match jmember "seed" m with
   | Obs.Json.Num 7.0 -> ()
   | _ -> Alcotest.fail "seed");
  (* the v2 config slice parses back *)
  (match jmember "circuit" m with
   | Obs.Json.Str "s1" -> ()
   | _ -> Alcotest.fail "circuit");
  (match jmember "patterns" m with
   | Obs.Json.Num 64.0 -> ()
   | _ -> Alcotest.fail "patterns");
  (match jmember "block_words" m with
   | Obs.Json.Num 8.0 -> ()
   | _ -> Alcotest.fail "block_words");
  (match jmember "opt_passes" m with
   | Obs.Json.Arr [ Obs.Json.Str "fold"; Obs.Json.Str "prune" ] -> ()
   | _ -> Alcotest.fail "opt_passes");
  (match jmember "opt_rounds" m with
   | Obs.Json.Num 2.0 -> ()
   | _ -> Alcotest.fail "opt_rounds");
  (match jmember "objective" m with
   | Obs.Json.Str "ndetect:2" -> ()
   | _ -> Alcotest.fail "objective");
  (match jmember "host_cores" m with
   | Obs.Json.Num c -> check Alcotest.bool "host cores positive" true (c >= 1.0)
   | _ -> Alcotest.fail "host_cores");
  (match jmember "git_rev" m with
   | Obs.Json.Str _ -> ()
   | _ -> Alcotest.fail "git_rev");
  (* events.jsonl: every line is a self-describing JSON object *)
  let lines =
    String.split_on_char '\n' (read_file (Filename.concat dir "events.jsonl"))
    |> List.filter (fun l -> String.trim l <> "")
  in
  check Alcotest.bool "events.jsonl non-empty" true (List.length lines >= 2);
  List.iter
    (fun l ->
      match jmember "type" (Obs.Json.parse l) with
      | Obs.Json.Str ("span" | "mark") -> ()
      | _ -> Alcotest.fail "events.jsonl line type")
    lines;
  (* metrics.json parses and carries the histogram *)
  let mx = Obs.Json.parse (read_file (Filename.concat dir "metrics.json")) in
  (match jmember "test.artifact.lat_us" (jmember "histograms" mx) with
   | Obs.Json.Obj _ -> ()
   | _ -> Alcotest.fail "histogram in metrics.json");
  (* metrics.prom: OpenMetrics shape *)
  let prom = read_file (Filename.concat dir "metrics.prom") in
  let has needle =
    let nl = String.length needle and pl = String.length prom in
    let rec go i = i + nl <= pl && (String.sub prom i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "prom counter _total" true
    (has "optprob_test_artifact_queries_total 1");
  check Alcotest.bool "prom histogram buckets" true
    (has "optprob_test_artifact_lat_us_bucket{le=");
  check Alcotest.bool "prom +Inf bucket" true (has "_bucket{le=\"+Inf\"} 1");
  check Alcotest.bool "prom EOF terminator" true (has "# EOF");
  (* trace.json still parses with the mark as an instant event *)
  let t = Obs.Json.parse (read_file (Filename.concat dir "trace.json")) in
  match jmember "traceEvents" t with
  | Obs.Json.Arr evs ->
    check Alcotest.bool "span + instant mark" true
      (List.exists
         (fun e -> match Obs.Json.member "ph" e with Some (Obs.Json.Str "i") -> true | _ -> false)
         evs)
  | _ -> Alcotest.fail "traceEvents"

(* --- obs diff ---------------------------------------------------------------

   Deterministic self-test: identical artifacts diff clean; an injected 2x
   slowdown (histogram samples and a hand-written span total) is flagged as
   a regression on exactly the affected series. *)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let trace_with_dur dur =
  Printf.sprintf
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"optimize\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":1.0,\"dur\":%.1f,\"pid\":1,\"tid\":0}]}"
    dur

let test_obs_diff =
  with_obs @@ fun () ->
  let dir_a = scratch_dir "diff-a" and dir_b = scratch_dir "diff-b" in
  let samples = Array.init 200 (fun i -> 10.0 +. Float.of_int (i mod 50)) in
  let h = Obs.histogram "test.diff.lat_us" in
  Array.iter (Obs.observe h) samples;
  Obs.Artifact.write ~dir:dir_a ~manifest:test_manifest ();
  Obs.clear ();
  Array.iter (fun v -> Obs.observe h (2.0 *. v)) samples;
  Obs.Artifact.write ~dir:dir_b ~manifest:test_manifest ();
  (* same run vs itself: nothing to flag *)
  let same = Obs.Diff.compare_dirs dir_a dir_a in
  check Alcotest.int "identical dirs: zero regressions" 0
    (List.length (Obs.Diff.regressions same));
  (* 2x slower histogram: flagged by name *)
  let regs = Obs.Diff.regressions (Obs.Diff.compare_dirs dir_a dir_b) in
  check Alcotest.bool "2x slowdown flagged on the affected histogram" true
    (List.exists
       (fun f -> f.Obs.Diff.kind = "histogram" && f.Obs.Diff.name = "test.diff.lat_us")
       regs);
  check Alcotest.bool "no span regressions invented" true
    (List.for_all (fun f -> f.Obs.Diff.kind <> "span") regs);
  (* inject a 2.4x span-tree slowdown above the noise floor *)
  write_file (Filename.concat dir_a "trace.json") (trace_with_dur 50_000.0);
  write_file (Filename.concat dir_b "trace.json") (trace_with_dur 120_000.0);
  let regs = Obs.Diff.regressions (Obs.Diff.compare_dirs dir_a dir_b) in
  check Alcotest.bool "span slowdown flagged" true
    (List.exists (fun f -> f.Obs.Diff.kind = "span" && f.Obs.Diff.name = "optimize") regs);
  (* below the default 1 ms noise floor the same ratio stays quiet *)
  write_file (Filename.concat dir_a "trace.json") (trace_with_dur 100.0);
  write_file (Filename.concat dir_b "trace.json") (trace_with_dur 240.0);
  let regs = Obs.Diff.regressions (Obs.Diff.compare_dirs dir_a dir_b) in
  check Alcotest.bool "sub-floor span noise ignored" true
    (List.for_all (fun f -> f.Obs.Diff.kind <> "span") regs)

(* --- Parallel.region policy ------------------------------------------------ *)

let test_region_seq_below =
  with_obs @@ fun () ->
  let spawns = Obs.counter "parallel.spawns" in
  let fallbacks = Obs.counter "parallel.seq_fallbacks" in
  let before_spawns = Obs.value spawns and before_fb = Obs.value fallbacks in
  let out = Array.make 100 0 in
  Parallel.region ~jobs:4 ~seq_below:1000 ~n:100 (fun ~chunk:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        out.(i) <- i * i
      done);
  check Alcotest.int "no domains spawned below threshold" before_spawns (Obs.value spawns);
  check Alcotest.bool "fallback counted" true (Obs.value fallbacks > before_fb);
  Array.iteri (fun i v -> check Alcotest.int "work done" (i * i) v) out;
  (* Above the threshold, chunk-indexed partials concatenated in chunk
     order cover the range in order, whatever the effective job count. *)
  let parts = Array.make 4 [||] in
  Parallel.region ~jobs:4 ~seq_below:0 ~n:100 (fun ~chunk ~lo ~hi ->
      parts.(chunk) <- Array.init (hi - lo) (fun k -> lo + k));
  check Alcotest.(array int) "chunk-ordered merge" (Array.init 100 Fun.id)
    (Array.concat (Array.to_list parts))

(* --- oracle protocol counters ---------------------------------------------- *)

let test_plan_cache_counters =
  with_obs @@ fun () ->
  let c = Generators.wide_and 8 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let nf = Array.length faults in
  let o = Detect.make Detect.Cop c faults in
  let hit = Obs.counter "detect.plan.hit" in
  let miss = Obs.counter "detect.plan.miss" in
  let hit0 = Obs.value hit and miss0 = Obs.value miss in
  let x = Array.make 8 0.5 in
  let s1 = Array.init (min 6 nf) Fun.id in
  let s2 = Array.init (min 6 nf) (fun i -> nf - 1 - i) in
  (* Alternating keys: the keyed cache must hold both (the old
     single-entry cache missed every call here). *)
  ignore (Oracle.probs_subset o s1 x);
  ignore (Oracle.probs_subset o s2 x);
  ignore (Oracle.probs_subset o s1 x);
  ignore (Oracle.probs_subset o s2 x);
  check Alcotest.int "two plan misses" (miss0 + 2) (Obs.value miss);
  check Alcotest.int "two plan hits" (hit0 + 2) (Obs.value hit)

let test_cofactor_counters =
  with_obs @@ fun () ->
  let c = Generators.wide_and 8 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let incr_c = Obs.counter "oracle.cofactor.incremental" in
  let full_c = Obs.counter "oracle.cofactor.full" in
  let q_cop = Obs.counter "oracle.cofactor_queries.cop" in
  let x = Array.make 8 0.5 in
  let subset = Array.init (min 6 (Array.length faults)) Fun.id in
  (* COP registers a fused cofactor: queries land on the incremental
     counter. *)
  let o = Detect.make Detect.Cop c faults in
  let plan = Oracle.plan o subset in
  let i0 = Obs.value incr_c and f0 = Obs.value full_c and q0 = Obs.value q_cop in
  ignore (Oracle.cofactor_pair o plan ~input:0 ~x);
  ignore (Oracle.cofactor_pair o plan ~input:1 ~x);
  check Alcotest.int "fused queries counted incremental" (i0 + 2) (Obs.value incr_c);
  check Alcotest.int "no full fallback for cop" f0 (Obs.value full_c);
  check Alcotest.int "per-engine cofactor queries" (q0 + 2) (Obs.value q_cop);
  (* A sharded conditioned engine (with a nonempty conditioning set) has
     no fused path: the same query lands on the full-fallback counter. *)
  let cr = Generators.random_circuit ~inputs:7 ~gates:30 ~seed:1 in
  if Array.length (Rt_testability.Signal_prob.conditioning_set ~max_vars:2 cr) = 0 then
    Alcotest.fail "fixture circuit must have conditioning variables";
  let fr = Rt_fault.Collapse.collapsed_universe cr in
  let oc = Detect.make ~jobs:4 (Detect.Conditioned { max_vars = 2 }) cr fr in
  let planc = Oracle.plan oc (Array.init (min 6 (Array.length fr)) Fun.id) in
  let i1 = Obs.value incr_c and f1 = Obs.value full_c in
  ignore (Oracle.cofactor_pair oc planc ~input:0 ~x:(Array.make 7 0.5));
  check Alcotest.int "fallback counted full" (f1 + 1) (Obs.value full_c);
  check Alcotest.int "fallback not counted incremental" i1 (Obs.value incr_c)

(* --- convergence recorder vs the optimizer's report ------------------------ *)

let test_convergence_matches_report () =
  let c = Generators.wide_and 8 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let oracle = Detect.make Detect.Cop c faults in
  let recorder = Obs.Convergence.create () in
  let options = { Optimize.default_options with Optimize.max_sweeps = 4 } in
  let r = Optimize.run ~options ~recorder oracle in
  let rows = Obs.Convergence.rows recorder in
  (match rows with
   | first :: _ ->
     check Alcotest.string "first row is the start" "initial" first.Obs.Convergence.stage
   | [] -> Alcotest.fail "no rows recorded");
  let sweep_rows = List.filter (fun row -> row.Obs.Convergence.stage = "sweep") rows in
  (* history is oldest-first: it must line up 1:1 with the recorder's
     sweep rows, which are appended chronologically. *)
  check Alcotest.int "one row per sweep" (List.length r.Optimize.history) (List.length sweep_rows);
  List.iter2
    (fun n_hist row -> check (Alcotest.float 0.0) "history N matches" n_hist row.Obs.Convergence.n)
    r.Optimize.history sweep_rows;
  List.iter2
    (fun j_hist row -> check (Alcotest.float 0.0) "j_history matches" j_hist row.Obs.Convergence.j)
    r.Optimize.j_history sweep_rows;
  check Alcotest.bool "sweep numbers increase" true
    (List.for_all2 (fun i row -> row.Obs.Convergence.sweep = i)
       (List.init (List.length sweep_rows) (fun i -> i + 1))
       sweep_rows);
  match List.rev rows with
  | last :: _ ->
    check Alcotest.string "last row is final" "final" last.Obs.Convergence.stage;
    check (Alcotest.float 0.0) "final N equals report" r.Optimize.n_final last.Obs.Convergence.n;
    check Alcotest.bool "final weights equal report" true (last.Obs.Convergence.y = r.Optimize.weights);
    let cj = parse_json (Obs.Convergence.to_json recorder) in
    (match member "rows" cj with
     | List l ->
       check Alcotest.int "JSON rows" (List.length rows) (List.length l);
       (* The final row must round-trip N exactly and carry the objective. *)
       let last = List.nth l (List.length l - 1) in
       (match member "objective" last with
        | Str o -> check Alcotest.string "JSON rows carry the objective key" "single" o
        | _ -> Alcotest.fail "convergence JSON objective");
       (match member "n" last with
        | Num n -> check (Alcotest.float 0.0) "JSON final N round-trips" r.Optimize.n_final n
        | _ -> Alcotest.fail "convergence JSON n")
     | _ -> Alcotest.fail "convergence JSON rows")
  | [] -> Alcotest.fail "no rows"

(* --- track names and span args --------------------------------------------- *)

let test_track_names_and_args =
  with_obs @@ fun () ->
  Obs.set_track_name "test-main-track";
  let t0 = Obs.span_begin () in
  Obs.span_end ~cat:"pool" ~args:[ ("queue", "d2"); ("stolen", "true") ] "work.slice" t0;
  let j = parse_json (Obs.trace_json ()) in
  match member "traceEvents" j with
  | List evs ->
    check Alcotest.bool "thread_name metadata event present" true
      (List.exists
         (fun e ->
           match (member "name" e, member "ph" e) with
           | Str "thread_name", Str "M" ->
             (match member "name" (member "args" e) with
              | Str "test-main-track" -> true
              | _ -> false)
           | _ -> false)
         evs);
    let slice =
      List.find
        (fun e -> match member "name" e with Str "work.slice" -> true | _ -> false)
        evs
    in
    (match member "args" slice with
     | Obj kvs ->
       check Alcotest.bool "steal args round-trip" true
         (List.assoc_opt "queue" kvs = Some (Str "d2")
          && List.assoc_opt "stolen" kvs = Some (Str "true"))
     | _ -> Alcotest.fail "slice span carries no args object")
  | _ -> Alcotest.fail "traceEvents"

(* --- OpenMetrics lint -------------------------------------------------------

   The real exposition must parse back clean, and each way of corrupting
   it must be caught by at least one lint error. *)

let test_prom_lint =
  with_obs @@ fun () ->
  Obs.add (Obs.counter "test.lint.requests") 3;
  Obs.gauge_set (Obs.gauge "test.lint.level") 0.5;
  Obs.observe (Obs.histogram "test.lint.lat_us") 42.0;
  let prom = Obs.metrics_prom () in
  (match Obs.prom_lint prom with
   | [] -> ()
   | errs -> Alcotest.failf "clean exposition flagged: %s" (String.concat "; " errs));
  let corrupt name f =
    match Obs.prom_lint (f prom) with
    | [] -> Alcotest.failf "corruption %S not caught" name
    | _ -> ()
  in
  (* truncate the # EOF terminator *)
  corrupt "missing EOF" (fun s -> String.sub s 0 (String.length s - 6));
  (* counter sample without the _total suffix *)
  corrupt "counter without _total" (fun s ->
      s ^ "# TYPE optprob_bad counter\noptprob_bad 1\n# EOF\n");
  Obs.prom_lint (String.concat "\n"
    [ "# TYPE optprob_dup counter"; "optprob_dup_total 1";
      "# TYPE optprob_dup counter"; "optprob_dup_total 2"; "# EOF"; "" ])
  |> fun errs ->
  check Alcotest.bool "duplicate family caught" true (errs <> []);
  (* histogram whose +Inf bucket disagrees with _count *)
  Obs.prom_lint (String.concat "\n"
    [ "# TYPE optprob_h histogram";
      "optprob_h_bucket{le=\"1\"} 1";
      "optprob_h_bucket{le=\"+Inf\"} 2";
      "optprob_h_count 3"; "optprob_h_sum 4"; "# EOF"; "" ])
  |> fun errs ->
  check Alcotest.bool "+Inf/count mismatch caught" true (errs <> [])

(* --- atomic artifact writes ------------------------------------------------- *)

let test_artifact_atomic =
  with_obs @@ fun () ->
  let dir = scratch_dir "atomic" in
  Obs.incr (Obs.counter "test.atomic.c");
  Obs.Artifact.write ~dir ~manifest:test_manifest ();
  Obs.Artifact.write_live ~dir;
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           let rec has_sub i =
             i + 4 <= String.length f && (String.sub f i 4 = ".tmp" || has_sub (i + 1))
           in
           has_sub 0)
  in
  check (Alcotest.list Alcotest.string) "no .tmp leftovers after atomic writes" [] leftovers

(* --- timeline ring buffer --------------------------------------------------- *)

let mk_sample ts =
  { Obs.Timeline.s_ts_us = ts; s_counters = [ ("c", int_of_float ts) ]; s_gauges = [] }

let ring_qcheck =
  QCheck.Test.make ~name:"timeline ring: bounded, monotone, lossless below capacity"
    ~count:200
    QCheck.(pair (int_range 1 64) (list_of_size Gen.(int_range 0 200) (float_range 0.0 1e6)))
    (fun (cap, stamps) ->
      let r = Obs.Timeline.ring_create cap in
      List.iter (fun ts -> Obs.Timeline.ring_push r (mk_sample ts)) stamps;
      let samples, dropped = Obs.Timeline.ring_flush r in
      let n = List.length stamps in
      let retained = List.length samples in
      let ts = List.map (fun s -> s.Obs.Timeline.s_ts_us) samples in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a < b && monotone rest
        | _ -> true
      in
      retained <= cap
      && retained = min n cap
      && dropped = n - retained
      && monotone ts
      && (* below capacity nothing is lost: the pushed counters survive in
            order *)
      (n > cap
       || List.map (fun s -> List.assoc "c" s.Obs.Timeline.s_counters) samples
          = List.map int_of_float stamps))

let test_ring_capacity_validation () =
  (try
     ignore (Obs.Timeline.ring_create 0);
     Alcotest.fail "ring_create 0 must raise"
   with Invalid_argument _ -> ());
  let r = Obs.Timeline.ring_create 3 in
  (* identical timestamps are clamped strictly monotone *)
  List.iter (fun _ -> Obs.Timeline.ring_push r (mk_sample 5.0)) [ (); (); () ];
  let samples, _ = Obs.Timeline.ring_flush r in
  let ts = List.map (fun s -> s.Obs.Timeline.s_ts_us) samples in
  check Alcotest.bool "equal stamps forced strictly monotone" true
    (match ts with [ a; b; c ] -> a < b && b < c | _ -> false)

(* The sampler runs concurrently with a real multi-domain pool workload:
   the flushed timeline must be non-empty, strictly monotone, and must
   have seen the pool gauges that the workload's sample hook refreshes. *)
let test_sampler_during_pool_run =
  with_obs @@ fun () ->
  let s = Obs.Timeline.start ~period_ms:2 () in
  let pool = Rt_util.Pool.default () in
  let spin = Atomic.make 0 in
  for _ = 1 to 20 do
    Rt_util.Pool.run pool ~label:"test.sampler" ~grain:4 ~participants:4 ~n:512
      (fun _worker lo hi ->
        for _ = lo to hi - 1 do
          (* enough work per item for the sampler to interleave *)
          for _ = 1 to 200 do
            Atomic.incr spin
          done
        done)
  done;
  let samples, dropped = Obs.Timeline.stop s in
  check Alcotest.bool "samples collected" true (List.length samples > 0);
  check Alcotest.bool "nothing dropped in a short run" true (dropped = 0);
  let ts = List.map (fun x -> x.Obs.Timeline.s_ts_us) samples in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  check Alcotest.bool "timestamps strictly monotone" true (monotone ts);
  let last = List.nth samples (List.length samples - 1) in
  check Alcotest.bool "pool.utilization gauge sampled" true
    (List.mem_assoc "pool.utilization" last.Obs.Timeline.s_gauges);
  check Alcotest.bool "final sample sees executed pool tasks" true
    (match List.assoc_opt "pool.tasks" last.Obs.Timeline.s_counters with
     | Some v -> v > 0
     | None -> false)

(* --- timeline diff ----------------------------------------------------------- *)

let timeline_samples util =
  List.init 20 (fun i ->
      { Obs.Timeline.s_ts_us = Float.of_int (1000 * (i + 1));
        s_counters = [];
        s_gauges = [ ("pool.utilization", util); ("heap.live_mb", 10.0) ] })

let test_timeline_diff =
  with_obs @@ fun () ->
  let dir_a = scratch_dir "tdiff-a" and dir_b = scratch_dir "tdiff-b" in
  Obs.incr (Obs.counter "test.tdiff.c");
  Obs.Artifact.write ~dir:dir_a ~manifest:test_manifest ();
  Obs.Artifact.write ~dir:dir_b ~manifest:test_manifest ();
  Obs.Timeline.write (Filename.concat dir_a "timeline.json") ~period_ms:10 ~dropped:0
    (timeline_samples 0.8);
  Obs.Timeline.write (Filename.concat dir_b "timeline.json") ~period_ms:10 ~dropped:0
    (timeline_samples 0.8);
  let same = Obs.Diff.regressions (Obs.Diff.compare_dirs dir_a dir_a) in
  check Alcotest.int "timeline self-diff clean" 0 (List.length same);
  let same_ab = Obs.Diff.regressions (Obs.Diff.compare_dirs dir_a dir_b) in
  check Alcotest.int "identical timelines diff clean" 0 (List.length same_ab);
  (* halved utilization on a scheduler series is a regression *)
  Obs.Timeline.write (Filename.concat dir_b "timeline.json") ~period_ms:10 ~dropped:0
    (timeline_samples 0.4);
  let regs = Obs.Diff.regressions (Obs.Diff.compare_dirs dir_a dir_b) in
  check Alcotest.bool "2x utilization drop flagged as timeline regression" true
    (List.exists
       (fun f ->
         f.Obs.Diff.kind = "timeline"
         && String.length f.Obs.Diff.name >= 16
         && String.sub f.Obs.Diff.name 0 16 = "pool.utilization")
       regs)

(* --- HTTP exposition ---------------------------------------------------------

   A raw Unix-socket client (the test deps have no HTTP library either):
   one request per connection, exactly like the server's model. *)

let http_get port ?(meth = "GET") path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n\r\n" meth path in
  let _ = Unix.write_substring fd req 0 (String.length req) in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  let raw = Buffer.contents buf in
  let code =
    try Scanf.sscanf raw "HTTP/1.1 %d" Fun.id
    with Scanf.Scan_failure _ | End_of_file -> -1
  in
  let body =
    let rec find i =
      if i + 4 > String.length raw then String.length raw
      else if String.sub raw i 4 = "\r\n\r\n" then i + 4
      else find (i + 1)
    in
    let b = find 0 in
    String.sub raw b (String.length raw - b)
  in
  (code, body)

let test_http_smoke =
  with_obs @@ fun () ->
  Obs.add (Obs.counter "test.http.hits") 7;
  let srv = Rt_obs_http.start ~port:0 () in
  Fun.protect ~finally:(fun () -> Rt_obs_http.stop srv)
  @@ fun () ->
  let port = Rt_obs_http.port srv in
  check Alcotest.bool "ephemeral port bound" true (port > 0);
  (* keep the sink moving from another domain while we scrape, like a real
     in-flight run *)
  let stop = Atomic.make false in
  let mutator =
    Domain.spawn (fun () ->
        let c = Obs.counter "test.http.background" in
        while not (Atomic.get stop) do
          Obs.incr c;
          Domain.cpu_relax ()
        done)
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join mutator)
  @@ fun () ->
  let code, body = http_get port "/healthz" in
  check Alcotest.int "healthz 200" 200 code;
  check Alcotest.string "healthz body" "ok\n" body;
  let code, prom = http_get port "/metrics" in
  check Alcotest.int "metrics 200" 200 code;
  (match Obs.prom_lint prom with
   | [] -> ()
   | errs -> Alcotest.failf "live /metrics fails lint: %s" (String.concat "; " errs));
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "metrics carries the counter" true
    (has "optprob_test_http_hits_total 7" prom);
  check Alcotest.bool "metrics refreshed pool gauges via hooks" true
    (has "optprob_pool_utilization" prom);
  let code, snap = http_get port "/snapshot" in
  check Alcotest.int "snapshot 200" 200 code;
  (match Obs.Json.member "schema" (Obs.Json.parse snap) with
   | Some (Obs.Json.Str "optprob-metrics/2") -> ()
   | _ -> Alcotest.fail "snapshot schema");
  let code, _ = http_get port "/nope" in
  check Alcotest.int "unknown path 404" 404 code;
  let code, _ = http_get port ~meth:"POST" "/metrics" in
  check Alcotest.int "non-GET 405" 405 code

(* --- telemetry must never change results ----------------------------------- *)

let telemetry_invariance_qcheck =
  QCheck.Test.make ~name:"telemetry on/off: bit-identical optimize results" ~count:4
    QCheck.(pair (int_range 1 3) (int_range 6 9))
    (fun (sweeps, width) ->
      let c = Generators.wide_and width in
      let faults = Rt_fault.Collapse.collapsed_universe c in
      let options = { Optimize.default_options with Optimize.max_sweeps = sweeps } in
      let run_with obs =
        Obs.set_enabled obs;
        Obs.clear ();
        let oracle = Detect.make Detect.Cop c faults in
        let recorder = if obs then Some (Obs.Convergence.create ()) else None in
        let r = Optimize.run ~options ?recorder oracle in
        Obs.set_enabled false;
        Obs.clear ();
        r
      in
      let off = run_with false in
      let on = run_with true in
      off.Optimize.weights = on.Optimize.weights
      && off.Optimize.n_final = on.Optimize.n_final
      && off.Optimize.history = on.Optimize.history
      && off.Optimize.j_history = on.Optimize.j_history)

(* Parallel fault simulation with telemetry on from several domains must
   also be invariant (and counters coherent). *)
let test_fault_sim_invariant_under_telemetry () =
  let c = Generators.wide_and 10 in
  let faults = Rt_fault.Collapse.collapsed_universe c in
  let run obs jobs =
    Obs.set_enabled obs;
    Obs.clear ();
    let rng = Rt_util.Rng.create 11 in
    let source = Rt_sim.Pattern.equiprobable rng ~n_inputs:10 in
    let stats = Rt_sim.Fault_sim.simulate ~jobs ~drop:true c faults ~source ~n_patterns:512 in
    let cov = Rt_sim.Fault_sim.coverage stats in
    Obs.set_enabled false;
    Obs.clear ();
    cov
  in
  let base = run false 1 in
  check (Alcotest.float 0.0) "telemetry off/on, jobs=1" base (run true 1);
  check (Alcotest.float 0.0) "telemetry on, jobs=4" base (run true 4)

let () =
  Alcotest.run "rt_obs"
    [ ( "counters",
        [ Alcotest.test_case "arithmetic and snapshots" `Quick test_counter_arithmetic;
          Alcotest.test_case "disabled drops increments" `Quick test_counter_disabled_drops;
          Alcotest.test_case "concurrent domains" `Quick test_counter_concurrent ] );
      ( "spans",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled records nothing" `Quick test_span_disabled;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise ] );
      ( "json",
        [ Alcotest.test_case "trace_event output parses" `Quick test_trace_json_valid;
          Alcotest.test_case "metrics output parses" `Quick test_metrics_json_valid ] );
      ( "histograms",
        [ QCheck_alcotest.to_alcotest hist_concurrent_qcheck;
          QCheck_alcotest.to_alcotest hist_merge_qcheck;
          QCheck_alcotest.to_alcotest hist_quantile_qcheck;
          Alcotest.test_case "with_span_h observes the span duration" `Quick test_with_span_h ] );
      ( "artifact",
        [ Alcotest.test_case "manifest/events/prom round-trip" `Quick test_artifact_roundtrip ] );
      ( "diff",
        [ Alcotest.test_case "obs-diff self-test" `Quick test_obs_diff;
          Alcotest.test_case "timeline series gating" `Quick test_timeline_diff ] );
      ( "tracks",
        [ Alcotest.test_case "thread_name metadata and span args" `Quick
            test_track_names_and_args ] );
      ( "prom",
        [ Alcotest.test_case "lint: clean exposition and corruptions" `Quick test_prom_lint ] );
      ( "atomic",
        [ Alcotest.test_case "no tmp leftovers" `Quick test_artifact_atomic ] );
      ( "timeline",
        [ QCheck_alcotest.to_alcotest ring_qcheck;
          Alcotest.test_case "ring capacity and monotone clamp" `Quick
            test_ring_capacity_validation;
          Alcotest.test_case "sampler during pool run" `Quick test_sampler_during_pool_run ] );
      ( "http",
        [ Alcotest.test_case "live endpoints smoke" `Quick test_http_smoke ] );
      ( "parallel",
        [ Alcotest.test_case "region seq_below fallback" `Quick test_region_seq_below ] );
      ( "oracle",
        [ Alcotest.test_case "keyed plan cache counters" `Quick test_plan_cache_counters;
          Alcotest.test_case "cofactor path counters" `Quick test_cofactor_counters ] );
      ( "convergence",
        [ Alcotest.test_case "recorder matches report" `Quick test_convergence_matches_report ] );
      ( "invariance",
        [ QCheck_alcotest.to_alcotest telemetry_invariance_qcheck;
          Alcotest.test_case "fault sim under telemetry" `Quick
            test_fault_sim_invariant_under_telemetry ] ) ]
