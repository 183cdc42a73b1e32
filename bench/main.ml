(* Benchmark harness: reproduces every table and figure of the paper
   (Tables 1-5, Fig. 1-2, the appendix weight listings, and the §3/§5.3
   extension experiments), timing each one.

   Usage:
     dune exec bench/main.exe                 quick reproduction
     dune exec bench/main.exe -- --full       paper-scale reproduction
     dune exec bench/main.exe -- --only t3,f2 selected experiments
     dune exec bench/main.exe -- --json       also write BENCH_optprob.json
                                              (per-experiment wall-clock and
                                              work counters, machine readable)
     dune exec bench/main.exe -- --registry D also ingest this bench run into
                                              the run registry at D (bare
                                              --registry uses the default
                                              _obs/registry convention)

   An unknown option or experiment id prints the usage line and exits 2. *)

let usage = "usage: main.exe [--full] [--only ID,...] [--json] [--registry [DIR]]"

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n%s\n" msg usage;
      exit 2)
    fmt

(* Returns the experiments to run, in run order.  Ids are resolved here,
   so a typo fails before any experiment runs. *)
let parse_args () =
  let full = ref (Sys.getenv_opt "OPTPROB_BENCH_FULL" = Some "1") in
  let only = ref Rt_repro.Experiments.ids in
  let json = ref false in
  let registry = ref None in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
      full := true;
      go rest
    | "--json" :: rest ->
      json := true;
      go rest
    | "--only" :: ids :: rest ->
      only := String.split_on_char ',' ids;
      go rest
    | "--registry" :: dir :: rest
      when not (String.length dir >= 2 && String.sub dir 0 2 = "--") ->
      registry := Some dir;
      go rest
    | "--registry" :: rest ->
      registry := Some (Rt_obs_registry.default_dir ());
      go rest
    | [ "--only" ] -> usage_error "--only needs a comma-separated list of experiment ids"
    | arg :: _ -> usage_error "unknown option %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  let experiments =
    List.map
      (fun id ->
        match Rt_repro.Experiments.by_id id with
        | Some f -> f
        | None ->
          usage_error "unknown experiment id %s (known: %s)" id
            (String.concat "," Rt_repro.Experiments.ids))
      !only
  in
  (!full, experiments, !json, !registry)

(* Runs each experiment individually (so its wall-clock is attributable),
   prints its table, and returns [(id, title, seconds, counters)] in run
   order.  Rt_obs counters are cleared before and snapshotted after each
   experiment, so the JSON records how much work (oracle queries, Newton
   iterations, ppsfp batches, ...) each table cost — not just how long. *)
let run_experiments ~full experiments =
  Rt_obs.set_enabled true;
  let rows =
    List.map
      (fun (f : ?full:bool -> unit -> Rt_repro.Experiments.table) ->
        Rt_obs.clear ();
        let t0 = Rt_util.Stats.timer_start () in
        let table = f ~full () in
        let seconds = Rt_util.Stats.timer_elapsed t0 in
        let counters =
          List.filter (fun (_, v) -> v <> 0) (Rt_obs.counters_snapshot ())
        in
        Rt_repro.Experiments.print_table Format.std_formatter table;
        (table.Rt_repro.Experiments.id, table.Rt_repro.Experiments.title, seconds, counters))
      experiments
  in
  Rt_obs.set_enabled false;
  Rt_obs.clear ();
  rows

(* --- Optimization-stage record --------------------------------------------- *)

(* s1's comparator cascade rebuilt with Builder folding and pruning off:
   the (0,1,0) constant cascade assignment of slice 0 and the logic it
   implies stay in the netlist — the redundancy the paper notes was
   removed from the real circuits.  [Passes.run] recovers the folded
   form; [measure_opt] records what it removes. *)
let s1_redundant () =
  let open Rt_circuit in
  let b = Builder.create ~fold:false ~prune:false () in
  let a_bits = Builder.inputs b "a" 24 in
  let b_bits = Builder.inputs b "b" 24 in
  let slice j (lt, eq, gt) =
    let sub arr = Array.sub arr (4 * j) 4 in
    Generators.comparator_slice_7485 b ~a:(sub a_bits) ~b:(sub b_bits) ~lt_in:lt ~eq_in:eq
      ~gt_in:gt
  in
  let rec cascade j acc =
    if j = 6 then acc
    else begin
      let lt, eq, gt = acc in
      cascade (j + 1) (slice j (lt, eq, gt) |> fun (l, e, g) -> (Some l, Some e, Some g))
    end
  in
  let lt, eq, gt = cascade 0 (None, None, None) in
  let get = function Some n -> n | None -> assert false in
  Builder.output b ~name:"a_lt_b" (get lt);
  Builder.output b ~name:"a_eq_b" (get eq);
  Builder.output b ~name:"a_gt_b" (get gt);
  Builder.finalize b

(* Gate-count delta the optimization stage achieves on the redundant s1,
   reported in the JSON next to the experiment timings. *)
type opt_measurement = {
  om_raw_nodes : int;
  om_raw_gates : int;
  om_opt_nodes : int;
  om_opt_gates : int;
}

let measure_opt () =
  let raw = s1_redundant () in
  let opt, _, _ = Rt_circuit.Passes.run raw in
  { om_raw_nodes = Rt_circuit.Netlist.size raw;
    om_raw_gates = Rt_circuit.Netlist.gate_count raw;
    om_opt_nodes = Rt_circuit.Netlist.size opt;
    om_opt_gates = Rt_circuit.Netlist.gate_count opt }

(* --- JSON output ----------------------------------------------------------- *)

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

let write_json ~path ~mode ~experiments ~opt ~total_seconds =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"optprob-bench/5\",\n";
  p "  \"mode\": \"%s\",\n" (json_escape mode);
  p "  \"jobs_env\": %d,\n" (Rt_util.Parallel.default_jobs ());
  p "  \"block_words_env\": %d,\n" (Rt_sim.Pattern.default_block_words ());
  p "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"total_seconds\": %.3f,\n" total_seconds;
  p "  \"opt\": {\n";
  p "    \"circuit\": \"s1-redundant\",\n";
  p "    \"passes\": \"%s\"," (json_escape (String.concat "," Rt_circuit.Passes.default_names));
  p "\n    \"raw\": {\"nodes\": %d, \"gates\": %d},\n" opt.om_raw_nodes opt.om_raw_gates;
  p "    \"optimized\": {\"nodes\": %d, \"gates\": %d},\n" opt.om_opt_nodes opt.om_opt_gates;
  p "    \"nodes_removed\": %d\n" (opt.om_raw_nodes - opt.om_opt_nodes);
  p "  },\n";
  p "  \"experiments\": [\n";
  List.iteri
    (fun i (id, title, seconds, counters) ->
      p "    {\"id\": \"%s\", \"title\": \"%s\", \"seconds\": %.3f, \"counters\": {"
        (json_escape id) (json_escape title) seconds;
      List.iteri
        (fun j (name, v) ->
          p "%s\"%s\": %d" (if j = 0 then "" else ", ") (json_escape name) v)
        counters;
      p "}}%s\n" (if i = List.length experiments - 1 then "" else ","))
    experiments;
  p "  ]\n";
  p "}\n";
  close_out oc

(* Record the finished bench run — per-experiment wall-clock as a latency
   histogram and a per-experiment gauge, plus the work counters each
   experiment burned — and ingest it straight from the sink into the run registry,
   so `optprob obs trend bench.experiment_us.p50` works across bench
   invocations without any separate tooling. *)
let ingest_run ~registry ~experiments ~total_seconds =
  let sanitize name =
    String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                          || (c >= '0' && c <= '9') || c = '.' then c else '_')
      name
  in
  Rt_obs.set_enabled true;
  Rt_obs.clear ();
  let h = Rt_obs.histogram "bench.experiment_us" in
  List.iter
    (fun (id, _title, seconds, counters) ->
      Rt_obs.observe h (seconds *. 1e6);
      Rt_obs.gauge_set (Rt_obs.gauge (Printf.sprintf "bench.%s.s" (sanitize id))) seconds;
      List.iter (fun (name, v) -> Rt_obs.add (Rt_obs.counter name) v) counters)
    experiments;
  let run =
    Rt_obs.Artifact.of_sink
      ~manifest:(Rt_obs.Artifact.make_manifest ~argv:Sys.argv ~wall_s:total_seconds ())
      ()
  in
  Rt_obs.clear ();
  Rt_obs.set_enabled false;
  match Rt_obs_registry.ingest_run ~source:"bench" ~registry run with
  | Ok id -> Format.printf "@.registry: ingested %s into %s@." id registry
  | Error e -> Format.eprintf "@.registry: ingest failed: %s@." e

let () =
  let full, experiments, json, registry = parse_args () in
  Format.printf "optprob reproduction harness (%s mode)@."
    (if full then "full paper-scale" else "quick");
  let t0 = Rt_util.Stats.timer_start () in
  let experiments = run_experiments ~full experiments in
  Format.printf "@.experiments completed in %.1fs@." (Rt_util.Stats.timer_elapsed t0);
  if json then begin
    let path = "BENCH_optprob.json" in
    let opt = measure_opt () in
    Format.printf "@.opt (s1-redundant): %d -> %d nodes (%d removed)@."
      opt.om_raw_nodes opt.om_opt_nodes (opt.om_raw_nodes - opt.om_opt_nodes);
    write_json ~path
      ~mode:(if full then "full" else "quick")
      ~experiments ~opt
      ~total_seconds:(Rt_util.Stats.timer_elapsed t0);
    Format.printf "@.wrote %s@." path
  end;
  match registry with
  | None -> ()
  | Some reg ->
    ingest_run ~registry:reg ~experiments ~total_seconds:(Rt_util.Stats.timer_elapsed t0)
