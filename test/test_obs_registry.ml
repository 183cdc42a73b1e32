(* Tests for Rt_obs_registry: ingest/load parse-back, ingest from memory
   against ingest from a directory, index durability (concurrent writers,
   corrupt records, lost index), gc retention invariants (qcheck), the
   step-change detector and sparkline, records diffed through Rt_obs.Diff
   exactly like their source directories, and records and artifact
   directories written by older builds. *)

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

(* [write_artifact] plus a convergence.json from a real recorder; returns
   the recorder. *)
let write_full_artifact dir =
  write_artifact dir;
  let conv = Obs.Convergence.create () in
  let y = [| 0.5; 0.5 |] in
  Obs.Convergence.record conv ~stage:"initial" ~sweep:0 ~j:9.0 ~n:4000.0 ~y ();
  Obs.Convergence.record conv ~stage:"sweep" ~sweep:1 ~j:5.5 ~n:2500.0 ~y ();
  Obs.Convergence.record conv ~stage:"sweep" ~sweep:2 ~j:4.25 ~n:2100.0 ~y ();
  Obs.Convergence.record conv ~stage:"final" ~sweep:2 ~j:4.125 ~n:2048.0 ~y ();
  Obs.Artifact.write ~dir
    ~manifest:(Obs.Artifact.make_manifest ~engine:"cop" ~argv:[| "test" |] ~wall_s:0.25 ())
    ~convergence:conv ();
  Obs.clear ();
  conv

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
  let conv = write_full_artifact art in
  let r = load_exn ~registry (ingest_exn ~registry art) in
  let rows = Obs.Convergence.rows conv in
  let last = List.nth rows (List.length rows - 1) in
  check (Alcotest.option (Alcotest.float 0.0)) "final_j" (Some last.Obs.Convergence.j)
    (Reg.metric r "convergence.final_j");
  check (Alcotest.option (Alcotest.float 0.0)) "final_n" (Some last.Obs.Convergence.n)
    (Reg.metric r "convergence.final_n");
  check (Alcotest.option (Alcotest.float 0.0)) "sweeps" (Some 2.0)
    (Reg.metric r "convergence.sweeps")

(* --- ingest from memory ------------------------------------------------------- *)

(* One recorded sink, ingested twice: once from the directory it was
   written to and once straight from memory.  Recording is switched off
   before either path runs, so neither one's GC refresh can move a gauge
   and both parse the very same documents. *)
let test_ingest_from_memory =
  with_obs @@ fun () ->
  let registry = scratch_dir "mem" in
  let art = scratch_dir "mem-art" in
  Obs.with_span ~cat:"phase" "pipeline.analyze" (fun () ->
      let t = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t < 1e-3 do
        ignore (Sys.opaque_identity 1)
      done);
  Obs.add (Obs.counter "reg.test.queries") 5;
  Obs.gauge_set (Obs.gauge "reg.test.level") 0.5;
  List.iter (Obs.observe (Obs.histogram "reg.test.lat_us")) [ 99.0; 100.0; 101.0 ];
  let conv = Obs.Convergence.create () in
  Obs.Convergence.record conv ~stage:"initial" ~sweep:0 ~j:9.0 ~n:4000.0 ~y:[| 0.5 |] ();
  Obs.Convergence.record conv ~stage:"final" ~sweep:0 ~j:4.0 ~n:2048.0 ~y:[| 0.25 |] ();
  let manifest =
    Obs.Artifact.make_manifest ~engine:"cop" ~circuit:"s1" ~argv:[| "test"; "mem" |]
      ~wall_s:0.25 ()
  in
  Obs.set_enabled false;
  Obs.Artifact.write ~dir:art ~manifest ~convergence:conv ();
  let from_dir = load_exn ~registry (ingest_exn ~registry art) in
  let from_mem =
    match Reg.ingest_run ~registry (Obs.Artifact.of_sink ~manifest ~convergence:conv ()) with
    | Ok id -> load_exn ~registry id
    | Error e -> Alcotest.failf "ingest_run: %s" e
  in
  check
    Alcotest.(list (pair string (float 0.0)))
    "equal derived metrics" from_dir.Reg.r_metrics from_mem.Reg.r_metrics;
  let doc f (r : Reg.record) = Obs.Json.print (f r.Reg.r_run) in
  List.iter
    (fun (name, f) ->
      check Alcotest.string (name ^ " stored identically") (doc f from_dir) (doc f from_mem))
    [ ("metrics", fun (r : Obs.Artifact.run) -> r.metrics);
      ("convergence", fun (r : Obs.Artifact.run) -> r.convergence) ];
  check Alcotest.int "no finding dir -> memory" 0
    (List.length (Obs.Diff.compare from_dir.Reg.r_run from_mem.Reg.r_run));
  check Alcotest.int "no finding memory -> dir" 0
    (List.length (Obs.Diff.compare from_mem.Reg.r_run from_dir.Reg.r_run));
  check
    Alcotest.(list string)
    "the registry holds only its own files" [ "index.json"; "records" ]
    (List.sort String.compare (Array.to_list (Sys.readdir registry)))

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
   quantiles, span totals and convergence all diff equal against the
   source directory, so no finding of any kind. *)
let test_record_diffs_clean =
  with_obs @@ fun () ->
  let registry = scratch_dir "rdiff" in
  let art = scratch_dir "rdiff-art" in
  let _ = write_full_artifact art in
  let r = load_exn ~registry (ingest_exn ~registry art) in
  check Alcotest.int "record vs source: no findings" 0
    (List.length (Obs.Diff.compare r.Reg.r_run (read_exn art)))

(* --- records and artifacts from older builds ------------------------------------

   Registries outlive builds (CI carries one across workflow runs), and
   records written while runs could be sampled carry [timeline.*] keys in
   their stored derived map.  Such a record must still load, list, trend
   and self-diff clean; the keys are simply no longer derived. *)

let old_record id =
  Printf.sprintf
    {|{"schema":"optprob-registry/1","id":"%s","ingested_at":1760000000.5,"source":"_obs/run",
"manifest":{"schema":"optprob-manifest/2","git_rev":"abc123","argv":["optprob","run","s1"],
"engine":"cop","seed":1,"jobs":4,"circuit":"s1","patterns":null,"block_words":null,
"opt_passes":null,"opt_rounds":null,"objective":"single","host_cores":2,"hostname":"ci",
"ocaml":"5.1.1","written_at":1760000000.25,"wall_s":0.5},
"metrics":{"schema":"optprob-metrics/2","counters":{"pool.tasks":64,"parallel.steals":3},
"gauges":{"ppsfp.live_faults":2,"gc.heap_words":12345},
"histograms":{"oracle.query.us":{"count":3,"sum":30,"min":9,"max":11,"p50":10,"p90":11,
"p99":11,"buckets":[[10,2],[17.782794100389228,1]]}}},
"convergence":null,
"span_totals":{"pipeline.analysis":1500,"pool.parked":900},
"derived":{"pool.tasks":64,"parallel.steals":3,"ppsfp.live_faults":2,"gc.heap_words":12345,
"pipeline.total_us":1500,"wall_s":0.5,"timeline.ppsfp.live_faults.mean":40,
"timeline.ppsfp.live_faults.peak":96,"timeline.ppsfp.live_faults.p90":90,
"timeline.gc.heap_words.mean":12000}}|}
    id

let test_old_record () =
  let registry = scratch_dir "old" in
  let ids = [ "20250101T000000-aaaaaa"; "20250101T000001-bbbbbb" ] in
  Obs.mkdir_p (Filename.concat registry "records");
  List.iter
    (fun id ->
      Obs.write_file
        (Filename.concat (Filename.concat registry "records") (id ^ ".json"))
        (old_record id))
    ids;
  check
    Alcotest.(list string)
    "both records listed" ids
    (List.map (fun s -> s.Reg.id) (Reg.list ~registry ()));
  List.iter
    (fun id ->
      let r = load_exn ~registry id in
      check (Alcotest.option Alcotest.string) "summary circuit" (Some "s1")
        r.Reg.r_summary.Reg.circuit;
      check (Alcotest.option (Alcotest.float 0.0)) "pipeline.total_us" (Some 1500.0)
        (Reg.metric r "pipeline.total_us");
      check (Alcotest.option (Alcotest.float 0.0)) "histogram p50" (Some 10.0)
        (Reg.metric r "oracle.query.us.p50");
      check Alcotest.bool "no timeline.* key derived" true
        (List.for_all
           (fun k -> not (String.length k > 9 && String.sub k 0 9 = "timeline."))
           (Reg.metric_names r));
      check Alcotest.int "self-diff clean" 0
        (List.length (Obs.Diff.compare r.Reg.r_run r.Reg.r_run)))
    ids;
  let series = Reg.series ~registry "pipeline.total_us" in
  check
    Alcotest.(list (float 0.0))
    "two-point trend" [ 1500.0; 1500.0 ]
    (List.map (fun p -> p.Reg.p_value) series.Reg.s_points);
  let a = load_exn ~registry (List.nth ids 0) and b = load_exn ~registry (List.nth ids 1) in
  check Alcotest.int "the two records diff clean" 0
    (List.length (Obs.Diff.compare a.Reg.r_run b.Reg.r_run))

(* An artifact directory written by a sampled run also holds a
   timeline.json, and every older build also wrote events.jsonl and
   metrics.prom.  Their content below disagrees with the real documents
   (an extra span, another counter value), so a reader that consumed any
   of them would change the run; reading, ingesting and diffing ignore
   all three files. *)
let test_stray_timeline =
  with_obs @@ fun () ->
  let art = scratch_dir "stray" in
  write_artifact art;
  let before = read_exn art in
  Obs.write_file (Filename.concat art "timeline.json")
    {|{"schema":"optprob-timeline/1","period_ms":5,"dropped":0,"samples":[
{"ts_us":1000.0,"counters":{"pool.tasks":3},"gauges":{"ppsfp.live_faults":7}}]}|};
  Obs.write_file (Filename.concat art "events.jsonl")
    {|{"type":"span","name":"pipeline.analyze","cat":"phase","ts_us":10.000,"dur_us":1200.000,"tid":0}
{"type":"span","name":"stray.span","cat":"phase","ts_us":20.000,"dur_us":50.000,"tid":0}
{"type":"mark","name":"checkpoint","ts_us":30.000,"tid":0,"fields":{"k":"v"}}
|};
  Obs.write_file (Filename.concat art "metrics.prom")
    {|# TYPE optprob_reg_test_queries counter
optprob_reg_test_queries_total 999
# TYPE optprob_reg_test_level gauge
optprob_reg_test_level 0.75
# TYPE optprob_reg_test_lat_us histogram
optprob_reg_test_lat_us_bucket{le="101.59366732596479"} 3
optprob_reg_test_lat_us_bucket{le="+Inf"} 3
optprob_reg_test_lat_us_sum 300
optprob_reg_test_lat_us_count 3
# EOF
|};
  let after = read_exn art in
  check Alcotest.string "same metrics" (Obs.Json.print before.Obs.Artifact.metrics)
    (Obs.Json.print after.Obs.Artifact.metrics);
  check
    Alcotest.(list (pair string (float 0.0)))
    "same span totals" before.Obs.Artifact.span_totals after.Obs.Artifact.span_totals;
  check Alcotest.int "no finding" 0 (List.length (Obs.Diff.compare before after));
  let registry = scratch_dir "stray-reg" in
  let r = load_exn ~registry (ingest_exn ~registry art) in
  check (Alcotest.option (Alcotest.float 0.0)) "counter from metrics.json" (Some 5.0)
    (Reg.metric r "reg.test.queries");
  check Alcotest.int "record diffs clean against the pre-stray read" 0
    (List.length (Obs.Diff.compare r.Reg.r_run before))

let () =
  Alcotest.run "rt_obs_registry"
    [ ( "record",
        [ Alcotest.test_case "ingest/load parse-back" `Quick test_roundtrip;
          Alcotest.test_case "list filters" `Quick test_filters;
          Alcotest.test_case "convergence final_j derived" `Quick test_convergence_derived;
          Alcotest.test_case "ingest from memory equals ingest from dir" `Quick
            test_ingest_from_memory ] );
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
            test_record_diffs_clean ] );
      ( "compat",
        [ Alcotest.test_case "older record with timeline keys" `Quick test_old_record;
          Alcotest.test_case "stray timeline.json ignored" `Quick test_stray_timeline ] )
    ]
