(* Tests for Rt_obs_registry: ingest/load parse-back, index durability
   (concurrent writers, corrupt records, lost index), gc retention
   invariants (qcheck), the step-change detector and sparkline, records
   diffed through Rt_obs.Diff exactly like their source directories, and
   the /runs + /trend HTTP endpoints (prom-linted live). *)

module Obs = Rt_obs
module Reg = Rt_obs_registry

let check = Alcotest.check

(* Scratch directories under the system temp dir, same convention as
   test_obs: registry-writing tests never touch the repo root. *)
let scratch_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "optprob-reg-%s-%d-%d" tag (Unix.getpid ()) !n)
    in
    let rec nuke d =
      if Sys.file_exists d then begin
        Array.iter
          (fun f ->
            let p = Filename.concat d f in
            if Sys.is_directory p then nuke p else Sys.remove p)
          (Sys.readdir d);
        Sys.rmdir d
      end
    in
    nuke dir;
    dir

let with_obs f () =
  Obs.set_enabled true;
  Obs.clear ();
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.clear ())
    f

(* Write one artifact directory carrying a histogram, a counter, a gauge
   and a span — every record shape the derived-metric map handles. *)
let write_artifact ?(queries = 5) ?(p50 = 100.0) dir =
  Obs.clear ();
  (* busy-wait so the span duration cannot round down to 0 us, which
     would drop it (and pipeline.total_us) from the derived map *)
  Obs.with_span ~cat:"phase" "pipeline.analyze" (fun () ->
      let t = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t < 1e-3 do
        ignore (Sys.opaque_identity 1)
      done);
  Obs.add (Obs.counter "reg.test.queries") queries;
  Obs.gauge_set (Obs.gauge "reg.test.level") 0.5;
  let h = Obs.histogram "reg.test.lat_us" in
  List.iter (Obs.observe h) [ p50 -. 1.0; p50; p50 +. 1.0 ];
  Obs.Artifact.write ~dir
    ~manifest:
      (Obs.Artifact.make_manifest ~engine:"cop" ~seed:7 ~jobs:2 ~circuit:"s1"
         ~patterns:64 ~block_words:8 ~opt_passes:[ "fold" ] ~opt_rounds:1
         ~objective:"ndetect:2"
         ~argv:[| "test"; "registry" |]
         ~wall_s:0.25 ())
    ();
  Obs.clear ()

(* [write_artifact] plus a convergence.json from a real recorder and a
   timeline.json from a short sampler run; returns the recorder and the
   timeline samples. *)
let write_full_artifact dir =
  write_artifact dir;
  let conv = Obs.Convergence.create () in
  let y = [| 0.5; 0.5 |] in
  Obs.Convergence.record conv ~stage:"initial" ~sweep:0 ~j:9.0 ~n:4000.0 ~y ();
  Obs.Convergence.record conv ~stage:"sweep" ~sweep:1 ~j:5.5 ~n:2500.0 ~y ();
  Obs.Convergence.record conv ~stage:"sweep" ~sweep:2 ~j:4.25 ~n:2100.0 ~y ();
  Obs.Convergence.record conv ~stage:"final" ~sweep:2 ~j:4.125 ~n:2048.0 ~y ();
  let sampler = Obs.Timeline.start ~period_ms:5 () in
  Unix.sleepf 0.02;
  let samples, dropped = Obs.Timeline.stop sampler in
  Obs.Artifact.write ~dir
    ~manifest:(Obs.Artifact.make_manifest ~engine:"cop" ~argv:[| "test" |] ~wall_s:0.25 ())
    ~convergence:conv ();
  Obs.Timeline.write (Filename.concat dir "timeline.json") ~period_ms:5 ~dropped samples;
  Obs.clear ();
  (conv, samples)

let read_exn dir =
  match Obs.Artifact.read dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "read %s: %s" dir e

let load_exn ~registry id =
  match Reg.load ~registry id with
  | Ok r -> r
  | Error e -> Alcotest.failf "load %s: %s" id e

let ingest_exn ?id ~registry dir =
  match Reg.ingest ?id ~registry ~obs_dir:dir () with
  | Ok id -> id
  | Error e -> Alcotest.failf "ingest failed: %s" e

(* --- ingest / load parse-back ----------------------------------------------- *)

let test_roundtrip =
  with_obs @@ fun () ->
  let registry = scratch_dir "rt" in
  let art = scratch_dir "rt-art" in
  write_artifact art;
  let id = ingest_exn ~registry art in
  (match Reg.list ~registry () with
   | [ s ] ->
     check Alcotest.string "listed id" id s.Reg.id;
     check (Alcotest.option Alcotest.string) "circuit" (Some "s1") s.Reg.circuit;
     check (Alcotest.option Alcotest.string) "engine" (Some "cop") s.Reg.engine;
     check Alcotest.bool "git rev non-empty" true (s.Reg.git_rev <> "");
     check (Alcotest.float 1e-9) "wall_s" 0.25 s.Reg.wall_s;
     List.iter
       (fun (k, v) ->
         check (Alcotest.option Alcotest.string) ("config " ^ k) (Some v)
           (List.assoc_opt k s.Reg.config))
       [ ("engine", "cop"); ("circuit", "s1"); ("seed", "7"); ("jobs", "2");
         ("patterns", "64"); ("block_words", "8"); ("opt_passes", "fold");
         ("opt_rounds", "1"); ("objective", "ndetect:2") ]
   | l -> Alcotest.failf "expected 1 record, got %d" (List.length l));
  let r =
    match Reg.load ~registry id with
    | Ok r -> r
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  check (Alcotest.option (Alcotest.float 1e-9)) "counter metric" (Some 5.0)
    (Reg.metric r "reg.test.queries");
  check (Alcotest.option (Alcotest.float 1e-9)) "gauge metric" (Some 0.5)
    (Reg.metric r "reg.test.level");
  check (Alcotest.option (Alcotest.float 1e-9)) "histogram p50" (Some 100.0)
    (Reg.metric r "reg.test.lat_us.p50");
  check (Alcotest.option (Alcotest.float 1e-9)) "histogram count" (Some 3.0)
    (Reg.metric r "reg.test.lat_us.count");
  check Alcotest.bool "span total present" true
    (Reg.metric r "span.pipeline.analyze.us" <> None);
  check Alcotest.bool "pipeline.total_us derived" true
    (Reg.metric r "pipeline.total_us" <> None);
  check (Alcotest.option (Alcotest.float 1e-9)) "wall_s metric" (Some 0.25)
    (Reg.metric r "wall_s");
  check Alcotest.bool "metric_names sorted, non-trivial" true
    (let names = Reg.metric_names r in
     List.length names >= 8 && List.sort String.compare names = names)

(* The derived convergence summary reads the recorder's own rows: sweep
   count, and N and J_N of the final row. *)
let test_convergence_derived =
  with_obs @@ fun () ->
  let registry = scratch_dir "conv" in
  let art = scratch_dir "conv-art" in
  let conv, _ = write_full_artifact art in
  let r = load_exn ~registry (ingest_exn ~registry art) in
  let rows = Obs.Convergence.rows conv in
  let last = List.nth rows (List.length rows - 1) in
  check (Alcotest.option (Alcotest.float 0.0)) "final_j" (Some last.Obs.Convergence.j)
    (Reg.metric r "convergence.final_j");
  check (Alcotest.option (Alcotest.float 0.0)) "final_n" (Some last.Obs.Convergence.n)
    (Reg.metric r "convergence.final_n");
  check (Alcotest.option (Alcotest.float 0.0)) "sweeps" (Some 2.0)
    (Reg.metric r "convergence.sweeps")

(* --- filters ----------------------------------------------------------------- *)

let test_filters =
  with_obs @@ fun () ->
  let registry = scratch_dir "filt" in
  let art = scratch_dir "filt-art" in
  write_artifact art;
  let _ = ingest_exn ~id:"20260101T000000-aaaaaa" ~registry art in
  let _ = ingest_exn ~id:"20260101T000001-bbbbbb" ~registry art in
  let n f = List.length (Reg.list ~filter:f ~registry ()) in
  check Alcotest.int "no filter" 2 (n Reg.no_filter);
  check Alcotest.int "engine match" 2 (n { Reg.no_filter with Reg.f_engine = Some "cop" });
  check Alcotest.int "engine mismatch" 0 (n { Reg.no_filter with Reg.f_engine = Some "bdd" });
  check Alcotest.int "circuit match" 2 (n { Reg.no_filter with Reg.f_circuit = Some "s1" });
  check Alcotest.int "config K=V match" 2
    (n { Reg.no_filter with Reg.f_config = [ ("block_words", "8") ] });
  check Alcotest.int "config K=V mismatch" 0
    (n { Reg.no_filter with Reg.f_config = [ ("block_words", "1") ] });
  check Alcotest.int "config objective match" 2
    (n { Reg.no_filter with Reg.f_config = [ ("objective", "ndetect:2") ] });
  check Alcotest.int "config objective mismatch" 0
    (n { Reg.no_filter with Reg.f_config = [ ("objective", "single") ] });
  let all = Reg.list ~registry () in
  let prefix = String.sub (List.hd all).Reg.git_rev 0 6 in
  check Alcotest.int "git rev prefix match" 2
    (n { Reg.no_filter with Reg.f_git_rev = Some prefix })

(* --- durability -------------------------------------------------------------- *)

(* Two domains ingesting concurrently into one registry: no lost records,
   and the index converges to cover exactly the record files. *)
let test_concurrent_ingest =
  with_obs @@ fun () ->
  let registry = scratch_dir "conc" in
  let art_a = scratch_dir "conc-a" and art_b = scratch_dir "conc-b" in
  write_artifact art_a;
  write_artifact art_b;
  let per_domain = 8 in
  let ingest_many tag art =
    Array.init per_domain (fun i ->
        ingest_exn ~id:(Printf.sprintf "20260201T0000%02d-%s" i tag) ~registry art)
  in
  let d = Domain.spawn (fun () -> ingest_many "aaaaaa" art_a) in
  let ids_b = ingest_many "bbbbbb" art_b in
  let ids_a = Domain.join d in
  let listed = Reg.list ~registry () in
  check Alcotest.int "no lost records" (2 * per_domain) (List.length listed);
  Array.iter
    (fun id ->
      check Alcotest.bool ("listed " ^ id) true
        (List.exists (fun s -> s.Reg.id = id) listed))
    (Array.append ids_a ids_b);
  (* a second list must agree (index now consistent with the dir scan) *)
  check Alcotest.int "stable relisting" (2 * per_domain) (List.length (Reg.list ~registry ()))

(* Corrupt or truncated record files are skipped, never fatal — and losing
   index.json loses nothing. *)
let test_corrupt_records =
  with_obs @@ fun () ->
  let registry = scratch_dir "corrupt" in
  let art = scratch_dir "corrupt-art" in
  write_artifact art;
  let id = ingest_exn ~registry art in
  let records = Filename.concat registry "records" in
  let put name body =
    let oc = open_out_bin (Filename.concat records name) in
    output_string oc body;
    close_out oc
  in
  put "zzzz-garbage.json" "this is not json";
  put "zzzz-truncated.json" "{\"schema\": \"optprob-registry/1\", \"id\": \"zz";
  put "zzzz-wrong-schema.json" "{\"schema\": \"something-else/9\", \"id\": \"x\"}";
  let listed = Reg.list ~registry () in
  check Alcotest.int "good record survives corruption neighbours" 1 (List.length listed);
  check Alcotest.string "surviving id" id (List.hd listed).Reg.id;
  (match Reg.load ~registry "zzzz-garbage" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage record loaded");
  (* deleting the index forces a rebuild from the records *)
  Sys.remove (Filename.concat registry "index.json");
  let relisted = Reg.list ~registry () in
  check Alcotest.int "index rebuild from records" 1 (List.length relisted);
  check Alcotest.string "rebuilt id" id (List.hd relisted).Reg.id;
  (* ingest keeps working next to the junk *)
  let id2 = ingest_exn ~registry art in
  check Alcotest.bool "post-corruption ingest" true (id2 <> id);
  check Alcotest.int "both listed" 2 (List.length (Reg.list ~registry ()))

(* --- gc retention invariants (qcheck) ---------------------------------------- *)

(* For any record count, keep bound and promoted baseline: gc keeps
   exactly the newest [keep] plus the baseline, returns the number
   removed, and the survivors are the newest ones (age order preserved). *)
let test_gc_invariants =
  QCheck.Test.make ~count:15 ~name:"gc keeps newest K plus the baseline"
    QCheck.(triple (int_range 0 8) (int_range 0 10) (int_range 0 7))
    (fun (n, keep, base_i) ->
      Obs.set_enabled true;
      Obs.clear ();
      Fun.protect ~finally:(fun () ->
          Obs.set_enabled false;
          Obs.clear ())
      @@ fun () ->
      let registry = scratch_dir "gcq" in
      let art = scratch_dir "gcq-art" in
      write_artifact art;
      let ids =
        Array.init n (fun i ->
            ingest_exn ~id:(Printf.sprintf "20260301T0000%02d-cccccc" i) ~registry art)
      in
      let base = if n > 0 && base_i < n then Some ids.(base_i) else None in
      (match base with
       | Some b -> (
         match Reg.promote ~registry b with
         | Ok () -> ()
         | Error e -> Alcotest.failf "promote: %s" e)
       | None -> ());
      let before = Reg.list ~registry () in
      let removed = Reg.gc ~keep ~registry () in
      let after = Reg.list ~registry () in
      let expected_survivors =
        List.filteri
          (fun i s ->
            i >= List.length before - keep || Some s.Reg.id = base)
          before
      in
      List.length after = List.length expected_survivors
      && List.for_all2 (fun a b -> a.Reg.id = b.Reg.id) after expected_survivors
      && removed = List.length before - List.length after
      && (match base with
          | Some b -> List.exists (fun s -> s.Reg.id = b) after
          | None -> true))

(* --- trends ------------------------------------------------------------------ *)

let test_series_and_steps =
  with_obs @@ fun () ->
  let registry = scratch_dir "trend" in
  (* per-run p50 targets; the histogram buckets approximate them, so the
     expected series is read back from the records themselves *)
  let vals = [| 100.0; 101.0; 99.0; 100.0; 250.0 |] in
  let ids =
    Array.mapi
      (fun i v ->
        let art = scratch_dir (Printf.sprintf "trend-art%d" i) in
        write_artifact ~p50:v art;
        ingest_exn ~id:(Printf.sprintf "20260401T0000%02d-dddddd" i) ~registry art)
      vals
  in
  let expected =
    Array.map
      (fun id ->
        match Reg.load ~registry id with
        | Ok r -> Option.get (Reg.metric r "reg.test.lat_us.p50")
        | Error e -> Alcotest.failf "load %s: %s" id e)
      ids
  in
  let s = Reg.series ~registry "reg.test.lat_us.p50" in
  check Alcotest.int "five points" 5 (List.length s.Reg.s_points);
  let got = Array.of_list (List.map (fun p -> p.Reg.p_value) s.Reg.s_points) in
  Array.iteri
    (fun i _ ->
      check (Alcotest.float 1e-9) (Printf.sprintf "point %d" i) expected.(i) got.(i))
    got;
  let sorted = Array.copy expected in
  Array.sort Float.compare sorted;
  check (Alcotest.float 1e-9) "p50 of series (nearest rank)" sorted.(2) s.Reg.s_p50;
  (* last=2 trims from the front *)
  let s2 = Reg.series ~last:2 ~registry "reg.test.lat_us.p50" in
  check Alcotest.int "last=2" 2 (List.length s2.Reg.s_points);
  check (Alcotest.float 1e-9) "last=2 keeps the newest" expected.(4)
    (match List.rev s2.Reg.s_points with p :: _ -> p.Reg.p_value | [] -> Float.nan);
  (* the 2.5x jump at the end is a step up; the flat prefix is quiet *)
  (match Reg.step_changes got with
   | [ st ] ->
     check Alcotest.int "step index" 4 st.Reg.st_index;
     check Alcotest.bool "step direction up" true st.Reg.st_up;
     check Alcotest.bool "deviation over threshold" true (st.Reg.st_ratio >= 1.0)
   | l -> Alcotest.failf "expected exactly 1 step, got %d" (List.length l));
  check Alcotest.int "flat series has no steps" 0
    (List.length (Reg.step_changes [| 5.0; 5.0; 5.0; 5.0; 5.0; 5.0 |]));
  check Alcotest.int "too-short series has no steps" 0
    (List.length (Reg.step_changes [| 1.0; 100.0; 1.0 |]));
  (* missing metric: empty series, nan stats *)
  let none = Reg.series ~registry "no.such.metric" in
  check Alcotest.int "missing metric empty" 0 (List.length none.Reg.s_points);
  check Alcotest.bool "missing metric nan stats" true (Float.is_nan none.Reg.s_p50)

let test_sparkline =
  QCheck.Test.make ~count:50 ~name:"sparkline covers range ends"
    QCheck.(list_of_size (Gen.int_range 2 12) (float_range 0.0 1000.0))
    (fun vals ->
      let a = Array.of_list vals in
      let s = Reg.sparkline a in
      (* one 3-byte UTF-8 block per value *)
      String.length s = 3 * Array.length a)

let test_sparkline_ends =
  with_obs @@ fun () ->
  check Alcotest.string "empty" "" (Reg.sparkline [||]);
  let s = Reg.sparkline [| 0.0; 1.0 |] in
  check Alcotest.string "min then max" "\xe2\x96\x81\xe2\x96\x88" s

(* --- baseline and record diffs ------------------------------------------------ *)

let test_baseline =
  with_obs @@ fun () ->
  let registry = scratch_dir "base" in
  let art = scratch_dir "base-art" in
  write_artifact art;
  let id = ingest_exn ~registry art in
  check (Alcotest.option Alcotest.string) "no baseline yet" None (Reg.promoted ~registry);
  (match Reg.promote ~registry "nonexistent" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "promoted a missing record");
  (match Reg.promote ~registry id with
   | Ok () -> ()
   | Error e -> Alcotest.failf "promote: %s" e);
  check (Alcotest.option Alcotest.string) "promoted" (Some id) (Reg.promoted ~registry);
  Reg.clear_baseline ~registry;
  check (Alcotest.option Alcotest.string) "cleared" None (Reg.promoted ~registry)

(* A record is the run it was ingested from: counters, gauges, histogram
   quantiles, span totals, convergence and timeline stats all diff equal
   against the source directory, so no finding of any kind. *)
let test_record_diffs_clean =
  with_obs @@ fun () ->
  let registry = scratch_dir "rdiff" in
  let art = scratch_dir "rdiff-art" in
  let _ = write_full_artifact art in
  let r = load_exn ~registry (ingest_exn ~registry art) in
  check Alcotest.bool "record carries timeline stats" true
    (r.Reg.r_run.Obs.Artifact.timeline <> None);
  check Alcotest.int "record vs source: no findings" 0
    (List.length (Obs.Diff.compare r.Reg.r_run (read_exn art)))

(* The record's timeline stats take part in its diffs: against a directory
   whose timeline differs, the diff reports it. *)
let test_record_timeline_diff =
  with_obs @@ fun () ->
  let registry = scratch_dir "rtl" in
  let art = scratch_dir "rtl-art" in
  let _, samples = write_full_artifact art in
  let r = load_exn ~registry (ingest_exn ~registry art) in
  let shifted =
    List.map
      (fun s ->
        { s with
          Obs.Timeline.s_gauges =
            List.map (fun (k, v) -> (k, (2.0 *. v) +. 1.0)) s.Obs.Timeline.s_gauges })
      samples
  in
  Obs.Timeline.write (Filename.concat art "timeline.json") ~period_ms:5 ~dropped:0 shifted;
  check Alcotest.bool "timeline finding" true
    (List.exists
       (fun f -> f.Obs.Diff.kind = "timeline")
       (Obs.Diff.compare r.Reg.r_run (read_exn art)))

(* --- HTTP /runs + /trend ------------------------------------------------------ *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path in
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

let test_http_endpoints =
  with_obs @@ fun () ->
  let registry = scratch_dir "http" in
  let art = scratch_dir "http-art" in
  write_artifact art;
  let id = ingest_exn ~registry art in
  let srv = Rt_obs_http.start ~registry ~port:0 () in
  Fun.protect ~finally:(fun () -> Rt_obs_http.stop srv)
  @@ fun () ->
  let port = Rt_obs_http.port srv in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (* JSON bodies parse back and carry the record *)
  let code, body = http_get port "/runs" in
  check Alcotest.int "/runs 200" 200 code;
  let j = Obs.Json.parse body in
  (match Obs.Json.member "schema" j with
   | Some (Obs.Json.Str "optprob-runs/1") -> ()
   | _ -> Alcotest.fail "/runs schema");
  check Alcotest.bool "/runs lists the record" true (contains id body);
  let code, body = http_get port "/trend?metric=reg.test.lat_us.p50" in
  check Alcotest.int "/trend 200" 200 code;
  (match Obs.Json.member "schema" (Obs.Json.parse body) with
   | Some (Obs.Json.Str "optprob-trend/1") -> ()
   | _ -> Alcotest.fail "/trend schema");
  (* prom variants pass the same lint as /metrics, # EOF terminator and all *)
  let code, prom = http_get port "/runs?format=prom" in
  check Alcotest.int "/runs prom 200" 200 code;
  (match Obs.prom_lint prom with
   | [] -> ()
   | errs -> Alcotest.failf "/runs prom fails lint: %s" (String.concat "; " errs));
  check Alcotest.bool "/runs prom run_info" true (contains "optprob_run_info{" prom);
  let code, prom = http_get port "/trend?metric=reg.test.lat_us.p50&format=prom" in
  check Alcotest.int "/trend prom 200" 200 code;
  (match Obs.prom_lint prom with
   | [] -> ()
   | errs -> Alcotest.failf "/trend prom fails lint: %s" (String.concat "; " errs));
  check Alcotest.bool "/trend prom family" true (contains "optprob_trend{" prom);
  (* parameter validation *)
  let code, _ = http_get port "/trend" in
  check Alcotest.int "/trend without metric is 400" 400 code;
  (* a server without a registry 404s both endpoints *)
  let bare = Rt_obs_http.start ~port:0 () in
  Fun.protect ~finally:(fun () -> Rt_obs_http.stop bare)
  @@ fun () ->
  let bport = Rt_obs_http.port bare in
  let code, _ = http_get bport "/runs" in
  check Alcotest.int "/runs without registry is 404" 404 code;
  let code, _ = http_get bport "/trend?metric=x" in
  check Alcotest.int "/trend without registry is 404" 404 code

let () =
  Alcotest.run "rt_obs_registry"
    [ ( "record",
        [ Alcotest.test_case "ingest/load parse-back" `Quick test_roundtrip;
          Alcotest.test_case "list filters" `Quick test_filters;
          Alcotest.test_case "convergence final_j derived" `Quick test_convergence_derived ] );
      ( "durability",
        [ Alcotest.test_case "concurrent two-domain ingest" `Quick test_concurrent_ingest;
          Alcotest.test_case "corrupt records skipped, index rebuilt" `Quick
            test_corrupt_records;
          QCheck_alcotest.to_alcotest test_gc_invariants ] );
      ( "trend",
        [ Alcotest.test_case "series, last, step changes" `Quick test_series_and_steps;
          QCheck_alcotest.to_alcotest test_sparkline;
          Alcotest.test_case "sparkline range ends" `Quick test_sparkline_ends ] );
      ( "baseline",
        [ Alcotest.test_case "promote/clear" `Quick test_baseline;
          Alcotest.test_case "record diffs clean against its source" `Quick
            test_record_diffs_clean;
          Alcotest.test_case "record timeline takes part in diffs" `Quick
            test_record_timeline_diff ] );
      ( "http",
        [ Alcotest.test_case "/runs and /trend, prom-linted" `Quick test_http_endpoints ] )
    ]
