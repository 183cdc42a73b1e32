(* Content-addressed artifact store under a --work-dir.

   One file per stage output: <dir>/<stage>-<key>.art where the key is the
   MD5 of (schema, stage, git rev, config slice, upstream artifact
   digests).  The payload is a one-line self-describing header followed by
   the marshalled value; the file's own MD5 is the artifact digest fed
   into downstream keys, so a change anywhere upstream reliably re-keys
   everything below it.  Unreadable or truncated files are treated as
   cache misses and overwritten.  Writes go through [Rt_obs.write_file]:
   a per-process, per-domain temp file renamed into place, so a crash
   mid-write never leaves a plausible-looking artifact behind and two
   runs that save the same stage never share a temp file. *)

type t = { dir : string }

let schema = "optprob-pipeline-artifact/3"

let create dir =
  Rt_obs.mkdir_p dir;
  { dir }

let key ~rev ~stage ~parts =
  Digest.to_hex (Digest.string (String.concat "\x00" (schema :: stage :: rev :: parts)))

let path t ~stage ~key = Filename.concat t.dir (stage ^ "-" ^ key ^ ".art")

let header stage = schema ^ " " ^ stage ^ "\n"

let load t ~stage ~key =
  let p = path t ~stage ~key in
  if not (Sys.file_exists p) then None
  else begin
    try
      let ic = open_in_bin p in
      let len = in_channel_length ic in
      let bytes = really_input_string ic len in
      close_in ic;
      let h = header stage in
      let hl = String.length h in
      if len <= hl || String.sub bytes 0 hl <> h then None
      else begin
        let value = Marshal.from_string bytes hl in
        Some (value, Digest.to_hex (Digest.string bytes))
      end
    with _ -> None
  end

let save t ~stage ~key value =
  let body = header stage ^ Marshal.to_string value [] in
  Rt_obs.write_file (path t ~stage ~key) body;
  Digest.to_hex (Digest.string body)
