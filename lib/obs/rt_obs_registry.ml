(* Persistent run registry over Rt_obs artifacts.

   Layout (all paths relative to the registry root):

     records/<id>.json   one immutable record per ingested run
     index.json          cache of per-record summaries (rebuildable)
     baseline.json       the promoted baseline id, when any

   A record keeps the manifest, metrics and convergence documents verbatim
   plus the folded span totals and the derived metric map, which together
   rebuild the Rt_obs.Artifact.run that Rt_obs.Artifact.read parsed.

   Records are append-only: an ingest writes exactly one new file, via
   Rt_obs.write_file's temp-file + atomic-rename discipline, so two
   processes (or two domains) ingesting concurrently can never corrupt each
   other.  The index is strictly a cache — every reader checks that it
   covers exactly the record files on disk and rebuilds it from the records
   when it doesn't, skipping anything unparseable.  A crash between the
   record write and the index write therefore costs nothing. *)

module Json = Rt_obs.Json
module Artifact = Rt_obs.Artifact

let schema_record = "optprob-registry/1"
let schema_index = "optprob-registry-index/1"
let schema_baseline = "optprob-registry-baseline/1"

let default_dir () =
  match Sys.getenv_opt "OPTPROB_OBS_REGISTRY" with
  | Some d when String.trim d <> "" -> d
  | _ -> Filename.concat "_obs" "registry"

let records_dir registry = Filename.concat registry "records"
let record_path registry id = Filename.concat (records_dir registry) (id ^ ".json")
let index_path registry = Filename.concat registry "index.json"
let baseline_path registry = Filename.concat registry "baseline.json"

let parse_file path =
  if Sys.file_exists path then (try Some (Json.parse (Rt_obs.read_file path)) with _ -> None)
  else None

(* --- summaries -------------------------------------------------------------- *)

type summary = {
  id : string;
  ts : float;
  git_rev : string;
  circuit : string option;
  engine : string option;
  config : (string * string) list;
  wall_s : float;
}

type record = {
  r_summary : summary;
  r_run : Artifact.run;
  r_metrics : (string * float) list;
}

type filter = {
  f_engine : string option;
  f_circuit : string option;
  f_git_rev : string option;
  f_config : (string * string) list;
}

let no_filter = { f_engine = None; f_circuit = None; f_git_rev = None; f_config = [] }

let mstr key j = Option.bind (Json.member key j) Json.to_string
let mnum key j = Option.bind (Json.member key j) Json.to_float

(* The config slice a manifest carries, flattened to display strings.  Int
   fields print without a fractional part so `--config jobs=4` matches. *)
let config_slice manifest =
  match manifest with
  | None | Some Json.Null -> []
  | Some m ->
    let str k = Option.map (fun v -> (k, v)) (mstr k m) in
    let int k =
      Option.map (fun v -> (k, Printf.sprintf "%.0f" v)) (mnum k m)
    in
    let passes =
      match Json.member "opt_passes" m with
      | Some (Json.Arr l) ->
        Some ("opt_passes", String.concat "," (List.filter_map Json.to_string l))
      | _ -> None
    in
    List.filter_map
      (fun x -> x)
      [ str "engine"; str "circuit"; int "seed"; int "jobs"; int "patterns";
        int "block_words"; passes; int "opt_rounds"; str "objective" ]
    |> List.sort compare

let summary_of_doc ~id doc =
  let manifest = Json.member "manifest" doc in
  { id;
    ts = Option.value ~default:0.0 (mnum "ingested_at" doc);
    git_rev =
      Option.value ~default:"unknown" (Option.bind manifest (mstr "git_rev"));
    circuit = Option.bind manifest (mstr "circuit");
    engine = Option.bind manifest (mstr "engine");
    config = config_slice manifest;
    wall_s = Option.value ~default:0.0 (Option.bind manifest (mnum "wall_s")) }

let summary_json s =
  let opt = function Some v -> Json.Str v | None -> Json.Null in
  Json.Obj
    [ ("id", Json.Str s.id);
      ("ts", Json.Num s.ts);
      ("git_rev", Json.Str s.git_rev);
      ("circuit", opt s.circuit);
      ("engine", opt s.engine);
      ("wall_s", Json.Num s.wall_s);
      ("config", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.config)) ]

let summary_of_json j =
  match mstr "id" j with
  | None -> None
  | Some id ->
    Some
      { id;
        ts = Option.value ~default:0.0 (mnum "ts" j);
        git_rev = Option.value ~default:"unknown" (mstr "git_rev" j);
        circuit = mstr "circuit" j;
        engine = mstr "engine" j;
        wall_s = Option.value ~default:0.0 (mnum "wall_s" j);
        config =
          (match Json.member "config" j with
           | Some (Json.Obj fields) ->
             List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string v)) fields
           | _ -> []) }

let by_age a b = compare (a.ts, a.id) (b.ts, b.id)

(* --- index ------------------------------------------------------------------ *)

let scan_ids registry =
  let dir = records_dir registry in
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list names
  |> List.filter_map (fun n ->
         if Filename.check_suffix n ".json" then Some (Filename.chop_suffix n ".json")
         else None)
  |> List.sort String.compare

let index_entries registry =
  match parse_file (index_path registry) with
  | Some j when mstr "schema" j = Some schema_index -> (
    match Json.member "entries" j with
    | Some (Json.Arr l) -> List.filter_map summary_of_json l
    | _ -> [])
  | _ -> []

let load_summary registry id =
  match parse_file (record_path registry id) with
  | Some (Json.Obj _ as doc) when mstr "schema" doc = Some schema_record ->
    Some (summary_of_doc ~id doc)
  | _ -> None

let write_index registry entries =
  let doc =
    Json.Obj
      [ ("schema", Json.Str schema_index);
        ("entries", Json.Arr (List.map summary_json (List.sort by_age entries))) ]
  in
  try Rt_obs.write_file (index_path registry) (Json.print doc) with Sys_error _ -> ()

(* Bring the index in line with the record files: keep cached summaries whose
   record still exists, load summaries for records the cache misses, drop the
   rest.  Corrupt records are skipped, never fatal. *)
let sync_index registry =
  let ids = scan_ids registry in
  let cached = index_entries registry in
  let entries =
    List.filter_map
      (fun id ->
        match List.find_opt (fun s -> s.id = id) cached with
        | Some s -> Some s
        | None -> load_summary registry id)
      ids
  in
  let entries = List.sort by_age entries in
  write_index registry entries;
  entries

let matches f s =
  let opt_eq fo v = match fo with None -> true | Some x -> v = Some x in
  opt_eq f.f_engine s.engine
  && opt_eq f.f_circuit s.circuit
  && (match f.f_git_rev with
     | None -> true
     | Some p ->
       String.length s.git_rev >= String.length p
       && String.sub s.git_rev 0 (String.length p) = p)
  && List.for_all (fun (k, v) -> List.assoc_opt k s.config = Some v) f.f_config

let list ?(filter = no_filter) ~registry () =
  let ids = scan_ids registry in
  let cached = index_entries registry in
  let covered =
    List.length cached = List.length ids
    && List.for_all (fun s -> List.mem s.id ids) cached
  in
  let entries = if covered then List.sort by_age cached else sync_index registry in
  List.filter (matches filter) entries

(* --- derived metric map ----------------------------------------------------- *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The flat name -> value map [show] and [trend] read: a flattening of the
   run, later sections overriding earlier ones on a name clash. *)
let derived (r : Artifact.run) =
  let tbl = Hashtbl.create 128 in
  let put k v = Hashtbl.replace tbl k v in
  List.iter (fun (k, v) -> put k v) r.counters;
  List.iter (fun (k, v) -> put k v) r.gauges;
  List.iter (fun (name, stats) -> List.iter (fun (k, v) -> put (name ^ "." ^ k) v) stats)
    r.histograms;
  List.iter (fun (name, us) -> put ("span." ^ name ^ ".us") us) r.span_totals;
  let pipeline_total =
    List.fold_left (fun acc (name, us) -> if has_prefix "pipeline." name then acc +. us else acc)
      0.0 r.span_totals
  in
  if pipeline_total > 0.0 then put "pipeline.total_us" pipeline_total;
  Option.iter (put "wall_s") (mnum "wall_s" r.manifest);
  Option.iter (fun n -> put "convergence.sweeps" (Float.of_int n)) r.sweeps;
  Option.iter (put "convergence.final_n") r.final_n;
  Option.iter (put "convergence.final_j") r.final_j;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- ingest ----------------------------------------------------------------- *)

let gen_id ~registry ~source =
  let rec attempt n =
    let t = Unix.gettimeofday () in
    let tm = Unix.gmtime t in
    let stamp =
      Printf.sprintf "%04d%02d%02dT%02d%02d%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
        tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    in
    let digest =
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "%s|%d|%d|%.9f|%d" source (Unix.getpid ())
              ((Domain.self () :> int)) t n))
    in
    let id = stamp ^ "-" ^ String.sub digest 0 6 in
    if Sys.file_exists (record_path registry id) && n < 1000 then attempt (n + 1) else id
  in
  attempt 0

let ingest_run ?id ?(source = "memory") ~registry (run : Artifact.run) =
  let id = match id with Some i -> i | None -> gen_id ~registry ~source in
  if Sys.file_exists (record_path registry id) then
    Error (Printf.sprintf "record %s already exists in %s" id registry)
  else begin
    let nums kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs) in
    let doc =
      Json.Obj
        [ ("schema", Json.Str schema_record);
          ("id", Json.Str id);
          ("ingested_at", Json.Num (Unix.gettimeofday ()));
          ("source", Json.Str source);
          ("manifest", run.manifest);
          ("metrics", run.metrics);
          ("convergence", run.convergence);
          ("span_totals", nums run.span_totals);
          ("derived", nums (derived run)) ]
    in
    try
      Rt_obs.mkdir_p (records_dir registry);
      Rt_obs.write_file (record_path registry id) (Json.print doc);
      ignore (sync_index registry);
      Ok id
    with Sys_error m | Unix.Unix_error (_, m, _) -> Error ("registry write failed: " ^ m)
  end

let ingest ?id ~registry ~obs_dir () =
  Result.bind (Artifact.read obs_dir) (ingest_run ?id ~source:obs_dir ~registry)

(* The run a record was ingested from: its stored documents and span
   totals.  [derived] is recomputed from them, so keys a record stored
   that the current map no longer derives are dropped. *)
let load ~registry id =
  match parse_file (record_path registry id) with
  | Some (Json.Obj _ as doc) when mstr "schema" doc = Some schema_record ->
    let member k = Option.value ~default:Json.Null (Json.member k doc) in
    let run =
      Artifact.make_run ~manifest:(member "manifest") ~metrics:(member "metrics")
        ~convergence:(member "convergence")
        ~span_totals:(Json.num_members (member "span_totals"))
    in
    Ok { r_summary = summary_of_doc ~id doc; r_run = run; r_metrics = derived run }
  | Some _ -> Error (Printf.sprintf "record %s: wrong shape or schema" id)
  | None -> Error (Printf.sprintf "record %s: missing or unreadable in %s" id registry)

let metric r name = List.assoc_opt name r.r_metrics
let metric_names r = List.map fst r.r_metrics

(* --- baseline --------------------------------------------------------------- *)

let promoted ~registry =
  match parse_file (baseline_path registry) with
  | Some j when mstr "schema" j = Some schema_baseline -> mstr "id" j
  | _ -> None

let promote ~registry id =
  if not (Sys.file_exists (record_path registry id)) then
    Error (Printf.sprintf "record %s not found in %s" id registry)
  else begin
    let doc =
      Json.Obj
        [ ("schema", Json.Str schema_baseline);
          ("id", Json.Str id);
          ("promoted_at", Json.Num (Unix.gettimeofday ())) ]
    in
    try
      Rt_obs.mkdir_p registry;
      Rt_obs.write_file (baseline_path registry) (Json.print doc);
      Ok ()
    with Sys_error m | Unix.Unix_error (_, m, _) -> Error ("baseline write failed: " ^ m)
  end

let clear_baseline ~registry =
  try Sys.remove (baseline_path registry) with Sys_error _ -> ()

(* --- retention -------------------------------------------------------------- *)

let gc ?keep ?max_age_s ~registry () =
  let entries = list ~registry () in
  let n = List.length entries in
  let base = promoted ~registry in
  let now = Unix.gettimeofday () in
  let doomed =
    List.filteri
      (fun i s ->
        let beyond_keep = match keep with Some k -> i < n - Stdlib.max 0 k | None -> false in
        let too_old = match max_age_s with Some a -> now -. s.ts > a | None -> false in
        (beyond_keep || too_old) && base <> Some s.id)
      entries
  in
  List.iter (fun s -> try Sys.remove (record_path registry s.id) with Sys_error _ -> ()) doomed;
  ignore (sync_index registry);
  List.length doomed

(* --- trends ----------------------------------------------------------------- *)

type point = { p_id : string; p_ts : float; p_value : float }

type series = {
  s_metric : string;
  s_points : point list;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
}

(* nearest-rank percentile on a sorted copy *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.ceil (q *. Float.of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
  end

let series ?(filter = no_filter) ?(last = 30) ~registry metric_name =
  let sums = list ~filter ~registry () in
  let points =
    List.filter_map
      (fun s ->
        match load ~registry s.id with
        | Ok r ->
          Option.map (fun v -> { p_id = s.id; p_ts = s.ts; p_value = v }) (metric r metric_name)
        | Error _ -> None)
      sums
  in
  let n = List.length points in
  let points = if n > last then List.filteri (fun i _ -> i >= n - last) points else points in
  let values = Array.of_list (List.map (fun p -> p.p_value) points) in
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let mean =
    if Array.length values = 0 then Float.nan
    else Array.fold_left ( +. ) 0.0 values /. Float.of_int (Array.length values)
  in
  { s_metric = metric_name;
    s_points = points;
    s_mean = mean;
    s_p50 = percentile sorted 0.5;
    s_p90 = percentile sorted 0.9 }

type step = {
  st_index : int;
  st_value : float;
  st_median : float;
  st_ratio : float;
  st_up : bool;
}

let median a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let step_changes ?(window = 8) ?(k = 4.0) ?(rel = 0.25) xs =
  let n = Array.length xs in
  let out = ref [] in
  for i = 3 to n - 1 do
    let lo = Stdlib.max 0 (i - window) in
    let w = Array.sub xs lo (i - lo) in
    let med = median w in
    let mad = median (Array.map (fun x -> Float.abs (x -. med)) w) in
    let sigma = 1.4826 *. mad in
    let thr = Float.max (Float.max (k *. sigma) (rel *. Float.abs med)) 1e-12 in
    let d = xs.(i) -. med in
    if Float.abs d > thr then
      out :=
        { st_index = i;
          st_value = xs.(i);
          st_median = med;
          st_ratio = Float.abs d /. thr;
          st_up = d > 0.0 }
        :: !out
  done;
  List.rev !out

let sparkline xs =
  let n = Array.length xs in
  if n = 0 then ""
  else begin
    let blocks = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
    let mn = Array.fold_left Float.min Float.infinity xs in
    let mx = Array.fold_left Float.max Float.neg_infinity xs in
    let buf = Buffer.create (n * 3) in
    Array.iter
      (fun x ->
        let i =
          if mx <= mn then 3
          else int_of_float (Float.round ((x -. mn) /. (mx -. mn) *. 7.0))
        in
        Buffer.add_string buf blocks.(Stdlib.max 0 (Stdlib.min 7 i)))
      xs;
    Buffer.contents buf
  end
