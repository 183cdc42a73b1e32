(* Tests for Rt_repro: weight file I/O and the experiment registry (the
   fast experiments run for real; the heavyweight tables are covered by the
   bench harness). *)

module Weights_io = Rt_optprob.Weights_io
module Experiments = Rt_repro.Experiments
module Generators = Rt_circuit.Generators

let check = Alcotest.check

let test_weights_roundtrip () =
  let c = Generators.c432ish () in
  let n = Array.length (Rt_circuit.Netlist.inputs c) in
  let w = Array.init n (fun i -> 0.05 +. (0.9 *. Float.of_int i /. Float.of_int n)) in
  let path = Filename.temp_file "weights" ".txt" in
  Weights_io.save path c w;
  let w' = Weights_io.load path c in
  Sys.remove path;
  Array.iteri
    (fun i v ->
      if Float.abs (v -. w'.(i)) > 1e-6 then Alcotest.failf "weight %d corrupted" i)
    w

let test_weights_load_defaults () =
  let c = Generators.c432ish () in
  let path = Filename.temp_file "weights" ".txt" in
  let oc = open_out path in
  output_string oc "# only one entry\nch0_r0 0.9\n";
  close_out oc;
  let w = Weights_io.load path c in
  Sys.remove path;
  check (Alcotest.float 1e-9) "named input set" 0.9 w.(0);
  check (Alcotest.float 1e-9) "others default" 0.5 w.(1)

let load_failure contents =
  let c = Generators.c432ish () in
  let path = Filename.temp_file "weights" ".txt" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  let result = match Weights_io.load path c with exception Failure msg -> Some msg | _ -> None in
  Sys.remove path;
  (path, result)

let test_weights_load_unknown_name () =
  match load_failure "does_not_exist 0.9\n" with
  | _, None -> Alcotest.fail "expected failure"
  | path, Some msg ->
    check Alcotest.string "located" (Printf.sprintf "weights file %s line 1: unknown input does_not_exist" path) msg

(* Each bad line fails with the file and line named, not a bare
   [float_of_string] failure or a silently accepted weight. *)
let test_weights_load_rejects () =
  List.iter
    (fun (contents, line, what) ->
      match load_failure contents with
      | _, None -> Alcotest.failf "%S accepted" contents
      | path, Some msg ->
        let prefix = Printf.sprintf "weights file %s line %d: " path line in
        let n = String.length prefix in
        if String.length msg < n || String.sub msg 0 n <> prefix then
          Alcotest.failf "%S: message %S lacks %S" contents msg prefix;
        let rest = String.sub msg n (String.length msg - n) in
        if not (String.length rest >= String.length what && String.sub rest 0 (String.length what) = what)
        then Alcotest.failf "%S: message %S, expected %S" contents msg what)
    [ ("# header\nch0_r0 0.9 extra\n", 2, "expected 'name value'");
      ("ch0_r0 abc\n", 1, "not a number");
      ("ch0_r0 0.2\n\nch0_r1 nan\n", 3, "weight nan is not finite");
      ("ch0_r0 inf\n", 1, "weight inf is not finite");
      ("ch0_r0 -infinity\n", 1, "weight -infinity is not finite");
      ("ch0_r0 1.5\n", 1, "weight 1.5 is outside [0,1]");
      ("ch0_r0 -0.01\n", 1, "weight -0.01 is outside [0,1]");
      ("ch0_r0 0.9\nch0_r1 0.5\nch0_r0 0.1\n", 3, "duplicate input ch0_r0") ]

let test_weights_load_bounds_accepted () =
  let c = Generators.c432ish () in
  let path = Filename.temp_file "weights" ".txt" in
  let oc = open_out path in
  output_string oc "ch0_r0 0\nch0_r1 1.0\n";
  close_out oc;
  let w = Weights_io.load path c in
  Sys.remove path;
  check (Alcotest.float 0.0) "0 accepted" 0.0 w.(0);
  check (Alcotest.float 0.0) "1 accepted" 1.0 w.(1)

let test_weights_load_missing_file () =
  let c = Generators.c432ish () in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "no-such-weights-file.txt" in
  match Weights_io.load path c with
  | exception Failure msg ->
    let prefix = Printf.sprintf "weights file %s: " path in
    check Alcotest.string "located" prefix (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  | _ -> Alcotest.fail "missing file accepted"

(* A failing load must not leak its channel: repeated failures leave the
   process's open descriptors unchanged (checked where /proc exposes
   them). *)
let test_weights_load_closes_channel () =
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then begin
    let open_fds () = Array.length (Sys.readdir fd_dir) in
    ignore (load_failure "ch0_r0 nan\n");
    let before = open_fds () in
    for _ = 1 to 20 do
      ignore (load_failure "ch0_r0 abc\n");
      ignore (load_failure "does_not_exist 0.5\n")
    done;
    check Alcotest.int "no leaked descriptors" before (open_fds ())
  end

let test_weights_pp_groups_runs () =
  let c = Generators.wide_and 6 in
  let txt = Format.asprintf "%a" (Weights_io.pp c) [| 0.9; 0.9; 0.9; 0.1; 0.1; 0.5 |] in
  let has_group = ref false in
  String.split_on_char '\n' txt
  |> List.iter (fun line ->
         if String.length line >= 6 && String.sub line 0 6 = "x0..x2" then has_group := true);
  check Alcotest.bool "run x0..x2 present" true !has_group

let test_by_id () =
  List.iter
    (fun id ->
      if Experiments.by_id id = None then Alcotest.failf "experiment %s missing" id)
    [ "t1"; "t2"; "t3"; "t4"; "t5"; "f1"; "f2"; "a1"; "x2"; "x3" ];
  check Alcotest.bool "unknown rejected" true (Experiments.by_id "t9" = None)

let test_f1_runs () =
  let t = Experiments.f1_s1_structure () in
  check Alcotest.string "id" "F1" t.Experiments.id;
  check Alcotest.bool "has rows" true (List.length t.Experiments.rows > 0);
  (* printable *)
  let txt = Format.asprintf "%a" Experiments.print_table t in
  check Alcotest.bool "prints" true (String.length txt > 50)

let test_x3_convexity_holds () =
  let t = Experiments.x3_convexity_scan () in
  let convex_row =
    List.exists (fun row -> row = [ "convex?"; "true" ]) t.Experiments.rows
  in
  check Alcotest.bool "scan confirms convexity" true convex_row

let test_x2_partitioning_wins () =
  let t = Experiments.x2_partitioning () in
  (* The gain row must report a factor greater than 1. *)
  let gain =
    List.find_map
      (fun row -> match row with [ "gain"; g ] -> Some g | _ -> None)
      t.Experiments.rows
  in
  match gain with
  | Some g ->
    let factor = float_of_string (String.sub g 1 (String.length g - 1)) in
    check Alcotest.bool "partitioning gains" true (factor > 1.0)
  | None -> Alcotest.fail "no gain row"

let () =
  Alcotest.run "rt_repro"
    [ ( "weights-io",
        [ Alcotest.test_case "roundtrip" `Quick test_weights_roundtrip;
          Alcotest.test_case "defaults" `Quick test_weights_load_defaults;
          Alcotest.test_case "unknown name" `Quick test_weights_load_unknown_name;
          Alcotest.test_case "bad lines located" `Quick test_weights_load_rejects;
          Alcotest.test_case "bounds 0 and 1 accepted" `Quick test_weights_load_bounds_accepted;
          Alcotest.test_case "missing file located" `Quick test_weights_load_missing_file;
          Alcotest.test_case "channel closed on failure" `Quick test_weights_load_closes_channel;
          Alcotest.test_case "pp groups runs" `Quick test_weights_pp_groups_runs ] );
      ( "experiments",
        [ Alcotest.test_case "by_id" `Quick test_by_id;
          Alcotest.test_case "f1 runs" `Quick test_f1_runs;
          Alcotest.test_case "x3 convexity" `Slow test_x3_convexity_holds;
          Alcotest.test_case "x2 partitioning" `Slow test_x2_partitioning_wins ] ) ]
