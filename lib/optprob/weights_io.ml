module Netlist = Rt_circuit.Netlist

let save path c w =
  let oc = open_out path in
  output_string oc "# optimized input probabilities\n";
  Array.iteri
    (fun pos input ->
      Printf.fprintf oc "%s %.6f\n" (Netlist.name c input) w.(pos))
    (Netlist.inputs c);
  close_out oc

let load path c =
  let w = Array.make (Array.length (Netlist.inputs c)) 0.5 in
  let seen = Array.make (Array.length w) false in
  let ic =
    try open_in path with Sys_error msg -> failwith (Printf.sprintf "weights file %s: %s" path msg)
  in
  let fail lineno fmt =
    Printf.ksprintf (fun msg -> failwith (Printf.sprintf "weights file %s line %d: %s" path lineno msg)) fmt
  in
  let weight lineno value =
    match float_of_string_opt value with
    | None -> fail lineno "not a number: %s" value
    | Some v when not (Float.is_finite v) -> fail lineno "weight %s is not finite" value
    | Some v when v < 0.0 || v > 1.0 -> fail lineno "weight %s is outside [0,1]" value
    | Some v -> v
  in
  let rec read lineno =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ name; value ] ->
          (match Netlist.find c name with
           | Some node when Netlist.kind c node = Rt_circuit.Gate.Input ->
             let pos = Netlist.input_index c node in
             if seen.(pos) then fail lineno "duplicate input %s" name;
             seen.(pos) <- true;
             w.(pos) <- weight lineno value
           | Some _ | None -> fail lineno "unknown input %s" name)
        | _ -> fail lineno "expected 'name value'"
      end;
      read (lineno + 1)
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read 1);
  w

let pp c ppf w =
  (* Group runs of equal weights like the paper's appendix. *)
  let inputs = Netlist.inputs c in
  let n = Array.length inputs in
  let rec emit i =
    if i < n then begin
      let j = ref i in
      while !j + 1 < n && Float.abs (w.(!j + 1) -. w.(i)) < 1e-9 do incr j done;
      if !j = i then Format.fprintf ppf "%-12s %.2f@." (Netlist.name c inputs.(i)) w.(i)
      else
        Format.fprintf ppf "%s..%s %.2f@."
          (Netlist.name c inputs.(i))
          (Netlist.name c inputs.(!j))
          w.(i);
      emit (!j + 1)
    end
  in
  emit 0
