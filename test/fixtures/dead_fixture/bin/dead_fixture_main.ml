let () = exit (Dead_fixture.Exports.via_bin () - 4)
