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
   sweep policy), so this exercises cross-domain atomics even on a
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
  Obs.with_span ~cat:"phase" "work" ignore;
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
  (* metrics.json parses and carries the histogram *)
  let mx = Obs.Json.parse (read_file (Filename.concat dir "metrics.json")) in
  (match jmember "test.artifact.lat_us" (jmember "histograms" mx) with
   | Obs.Json.Obj _ -> ()
   | _ -> Alcotest.fail "histogram in metrics.json");
  (* one format per document: no OpenMetrics copy, no JSON-lines event log *)
  List.iter
    (fun f ->
      check Alcotest.bool (f ^ " not written") false (Sys.file_exists (Filename.concat dir f)))
    [ "metrics.prom"; "events.jsonl" ];
  (* trace.json parses, with the span as a complete event *)
  let t = Obs.Json.parse (read_file (Filename.concat dir "trace.json")) in
  match jmember "traceEvents" t with
  | Obs.Json.Arr evs ->
    check Alcotest.bool "span as a complete event" true
      (List.exists
         (fun e ->
           Obs.Json.member "name" e = Some (Obs.Json.Str "work")
           && Obs.Json.member "ph" e = Some (Obs.Json.Str "X"))
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

let read dir =
  match Obs.Artifact.read dir with Ok r -> r | Error e -> Alcotest.failf "read %s: %s" dir e

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
  let same = Obs.Diff.compare (read dir_a) (read dir_a) in
  check Alcotest.int "identical dirs: zero regressions" 0
    (List.length (Obs.Diff.regressions same));
  (* 2x slower histogram: flagged by name *)
  let regs = Obs.Diff.regressions (Obs.Diff.compare (read dir_a) (read dir_b)) in
  check Alcotest.bool "2x slowdown flagged on the affected histogram" true
    (List.exists
       (fun f -> f.Obs.Diff.kind = "histogram" && f.Obs.Diff.name = "test.diff.lat_us")
       regs);
  check Alcotest.bool "no span regressions invented" true
    (List.for_all (fun f -> f.Obs.Diff.kind <> "span") regs);
  (* inject a 2.4x span-tree slowdown above the noise floor *)
  write_file (Filename.concat dir_a "trace.json") (trace_with_dur 50_000.0);
  write_file (Filename.concat dir_b "trace.json") (trace_with_dur 120_000.0);
  let regs = Obs.Diff.regressions (Obs.Diff.compare (read dir_a) (read dir_b)) in
  check Alcotest.bool "span slowdown flagged" true
    (List.exists (fun f -> f.Obs.Diff.kind = "span" && f.Obs.Diff.name = "optimize") regs);
  (* below the default 1 ms noise floor the same ratio stays quiet *)
  write_file (Filename.concat dir_a "trace.json") (trace_with_dur 100.0);
  write_file (Filename.concat dir_b "trace.json") (trace_with_dur 240.0);
  let regs = Obs.Diff.regressions (Obs.Diff.compare (read dir_a) (read dir_b)) in
  check Alcotest.bool "sub-floor span noise ignored" true
    (List.for_all (fun f -> f.Obs.Diff.kind <> "span") regs)

(* Files an older build wrote next to the four documents (timeline.json,
   events.jsonl, metrics.prom) are ignored: the parsed run and its diff
   against the pre-stray read are unchanged. *)
let test_stray_timeline =
  with_obs @@ fun () ->
  let art = scratch_dir "stray" in
  Obs.with_span ~cat:"phase" "pipeline.analyze" (fun () ->
      let t = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t < 1e-3 do
        ignore (Sys.opaque_identity 1)
      done);
  Obs.add (Obs.counter "test.stray.queries") 5;
  Obs.gauge_set (Obs.gauge "test.stray.level") 0.5;
  List.iter (Obs.observe (Obs.histogram "test.stray.lat_us")) [ 99.0; 100.0; 101.0 ];
  Obs.Artifact.write ~dir:art ~manifest:test_manifest ();
  let before = read art in
  write_file (Filename.concat art "timeline.json")
    {|{"schema":"optprob-timeline/1","period_ms":5,"dropped":0,"samples":[
{"ts_us":1000.0,"counters":{"pool.tasks":3},"gauges":{"ppsfp.live_faults":7}}]}|};
  write_file (Filename.concat art "events.jsonl")
    {|{"type":"span","name":"pipeline.analyze","cat":"phase","ts_us":10.000,"dur_us":1200.000,"tid":0}
{"type":"span","name":"stray.span","cat":"phase","ts_us":20.000,"dur_us":50.000,"tid":0}
{"type":"mark","name":"checkpoint","ts_us":30.000,"tid":0,"fields":{"k":"v"}}
|};
  write_file (Filename.concat art "metrics.prom")
    {|# TYPE optprob_test_stray_queries counter
optprob_test_stray_queries_total 999
# TYPE optprob_test_stray_level gauge
optprob_test_stray_level 0.75
# EOF
|};
  let after = read art in
  let nums = Alcotest.(list (pair string (float 0.0))) in
  check nums "same counters" before.Obs.Artifact.counters after.Obs.Artifact.counters;
  check nums "same gauges" before.Obs.Artifact.gauges after.Obs.Artifact.gauges;
  check
    Alcotest.(list (pair string (list (pair string (float 0.0)))))
    "same histograms" before.Obs.Artifact.histograms after.Obs.Artifact.histograms;
  check nums "same span totals" before.Obs.Artifact.span_totals after.Obs.Artifact.span_totals;
  check Alcotest.int "no finding" 0 (List.length (Obs.Diff.compare before after))

(* --- Parallel.sweep policy ------------------------------------------------- *)

let test_sweep_seq_below =
  with_obs @@ fun () ->
  let spawns = Obs.counter "parallel.spawns" in
  let fallbacks = Obs.counter "parallel.seq_fallbacks" in
  let before_spawns = Obs.value spawns and before_fb = Obs.value fallbacks in
  let out = Array.make 100 0 in
  Parallel.sweep ~jobs:4 ~seq_below:1000 ~n:100 (fun ~worker ~lo ~hi ->
      if worker <> 0 || lo <> 0 || hi <> 100 then Alcotest.fail "not one inline call";
      for i = lo to hi - 1 do
        out.(i) <- i * i
      done);
  check Alcotest.int "no domains spawned below threshold" before_spawns (Obs.value spawns);
  check Alcotest.bool "fallback counted" true (Obs.value fallbacks > before_fb);
  Array.iteri (fun i v -> check Alcotest.int "work done" (i * i) v) out

(* --- oracle protocol counters ---------------------------------------------- *)

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
  (* A conditioned engine over more than 8 variables has no fused path:
     the same query lands on the full-fallback counter. *)
  let cr = Generators.random_circuit ~inputs:12 ~gates:60 ~seed:1 in
  if Array.length (Detect.conditioning_set ~max_vars:9 cr) <= 8 then
    Alcotest.fail "fixture circuit must have 9 conditioning variables";
  let fr = Rt_fault.Collapse.collapsed_universe cr in
  let oc = Detect.make (Detect.Conditioned { max_vars = 9 }) cr fr in
  let planc = Oracle.plan oc (Array.init (min 6 (Array.length fr)) Fun.id) in
  let i1 = Obs.value incr_c and f1 = Obs.value full_c in
  ignore (Oracle.cofactor_pair oc planc ~input:0 ~x:(Array.make 12 0.5));
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

(* After `git gc` or `git pack-refs` a branch ref lives only in
   .git/packed-refs; the manifest must still record its hash. *)
let test_git_rev_packed () =
  let dir = scratch_dir "gitrev" in
  let git = Filename.concat dir ".git" in
  let hash = "0123456789abcdef0123456789abcdef01234567" in
  let write name s =
    let oc = open_out (Filename.concat git name) in
    output_string oc s;
    close_out oc
  in
  Obs.mkdir_p git;
  write "packed-refs"
    (Printf.sprintf "# pack-refs with: peeled fully-peeled sorted \n%s refs/heads/main\n\
                     fedcba9876543210fedcba9876543210fedcba98 refs/tags/v1\n\
                     ^0000000000000000000000000000000000000000\n" hash);
  let cwd = Sys.getcwd () and env = Sys.getenv_opt "OPTPROB_GIT_REV" in
  Unix.putenv "OPTPROB_GIT_REV" "";
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Unix.putenv "OPTPROB_GIT_REV" (Option.value env ~default:"");
      Array.iter (fun f -> Sys.remove (Filename.concat git f)) (Sys.readdir git);
      Sys.rmdir git;
      Sys.rmdir dir)
    (fun () ->
      Sys.chdir dir;
      write "HEAD" "ref: refs/heads/main\n";
      check Alcotest.string "packed branch ref" hash (Obs.Artifact.git_rev ());
      write "HEAD" "ref: refs/heads/gone\n";
      check Alcotest.string "unresolvable ref" "unknown" (Obs.Artifact.git_rev ()))

(* --- atomic artifact writes ------------------------------------------------- *)

let test_artifact_atomic =
  with_obs @@ fun () ->
  let dir = scratch_dir "atomic" in
  Obs.incr (Obs.counter "test.atomic.c");
  (* the second write renames over the first one's files *)
  Obs.Artifact.write ~dir ~manifest:test_manifest ();
  Obs.Artifact.write ~dir ~manifest:test_manifest ();
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           let rec has_sub i =
             i + 4 <= String.length f && (String.sub f i 4 = ".tmp" || has_sub (i + 1))
           in
           has_sub 0)
  in
  check (Alcotest.list Alcotest.string) "no .tmp leftovers after atomic writes" [] leftovers

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
        [ Alcotest.test_case "manifest/events/prom round-trip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "git_rev through packed-refs" `Quick test_git_rev_packed ] );
      ( "diff",
        [ Alcotest.test_case "obs-diff self-test" `Quick test_obs_diff ] );
      ( "atomic",
        [ Alcotest.test_case "no tmp leftovers" `Quick test_artifact_atomic ] );
      ( "compat",
        [ Alcotest.test_case "stray timeline.json ignored" `Quick test_stray_timeline ] );
      ( "parallel",
        [ Alcotest.test_case "sweep seq_below fallback" `Quick test_sweep_seq_below ] );
      ( "oracle",
        [ Alcotest.test_case "cofactor path counters" `Quick test_cofactor_counters ] );
      ( "convergence",
        [ Alcotest.test_case "recorder matches report" `Quick test_convergence_matches_report ] );
      ( "invariance",
        [ QCheck_alcotest.to_alcotest telemetry_invariance_qcheck;
          Alcotest.test_case "fault sim under telemetry" `Quick
            test_fault_sim_invariant_under_telemetry ] ) ]
